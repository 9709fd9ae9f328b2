"""Pluggable execution backends: one dispatch contract, three transports.

A :class:`Backend` turns a list of :class:`~repro.exec.units.Chunk` objects
into per-chunk row lists.  ``submit_batch`` yields ``(chunk_index, rows)``
pairs *in completion order* — the runner re-assembles batch order from the
chunk's ``start`` offset, journals finished units immediately (that is what
makes checkpoint/resume possible) and guarantees byte-identical rows across
backends because every unit is a pure function of ``(spec, seed)``.  Before
yielding a chunk, a backend folds the phase totals its worker measured into
the caller's collector (:func:`~repro.exec.stats.replay_phases`).

Registered backends (``BACKENDS``):

``serial``
    In-process loop.  The reference implementation every other backend must
    match byte for byte; also the automatic fallback when pools cannot spawn.
``process``
    ``concurrent.futures.ProcessPoolExecutor`` fan-out with chunk-level
    dispatch — the default parallel backend for CPU-bound sweeps.
``remote``
    The distributed sweep fabric (:mod:`repro.exec.remote`): long-lived
    workers that speak *only* the JSON wire form of the work-unit contract
    (:meth:`~repro.exec.units.Chunk.to_wire`), behind a pluggable transport
    (``loopback`` subprocesses or ``ssh``), with fault-tolerant re-dispatch,
    heartbeats and per-worker in-flight limits.  Like every backend it
    executes exactly the chunks the runner built.  Registered on import of
    :mod:`repro.exec.remote`.

New backends register with the usual decorator::

    from repro.exec import BACKENDS

    @BACKENDS.register("my-cluster")
    def _build(max_workers):
        return MyClusterBackend(max_workers)
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.scenarios.registry import Registry
from repro.exec.stats import replay_phases
from repro.exec.units import Chunk, Row, execute_chunk

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendError",
    "make_backend",
]

#: Execution backends by name (the ``--backend`` / ``execution.backend`` axis).
BACKENDS = Registry("execution backend")


class BackendError(ReproError):
    """A backend failed as a *transport* (worker died, queue broke).

    Unit-level errors (a metric raising, an unknown component) are not
    wrapped: they re-raise identically from the serial fallback, so genuine
    bugs keep their real tracebacks.
    """


class Backend:
    """Base class of the execution backends (see module docstring)."""

    name = "backend"

    def start(self) -> None:
        """Acquire workers (idempotent; ``submit_batch`` auto-starts)."""

    def close(self) -> None:
        """Release workers (idempotent)."""

    def submit_batch(self, chunks: Sequence[Chunk]) -> Iterator[Tuple[int, List[Row]]]:
        """Execute ``chunks``; yield ``(chunk_index, rows)`` as they complete."""
        raise NotImplementedError

    def __enter__(self) -> "Backend":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


@BACKENDS.register("serial", doc="In-process loop; the byte-identity reference and fallback.")
class SerialBackend(Backend):
    name = "serial"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        del max_workers  # one process, by definition

    def submit_batch(self, chunks: Sequence[Chunk]) -> Iterator[Tuple[int, List[Row]]]:
        for chunk in chunks:
            rows, phases = execute_chunk((chunk.spec_key, chunk.spec_dict, chunk.seeds))
            replay_phases(phases)
            yield chunk.index, rows


@BACKENDS.register("process", doc="Chunked ProcessPoolExecutor fan-out (default parallel backend).")
class ProcessBackend(Backend):
    name = "process"

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max(1, int(max_workers))
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._max_workers)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def submit_batch(self, chunks: Sequence[Chunk]) -> Iterator[Tuple[int, List[Row]]]:
        self.start()
        futures = {
            self._pool.submit(execute_chunk, (c.spec_key, c.spec_dict, c.seeds)): c.index
            for c in chunks
        }
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    rows, phases = future.result()
                    replay_phases(phases)
                    yield futures[future], rows
        finally:
            for future in pending:
                future.cancel()


def make_backend(name: str, max_workers: int, options: Optional[Dict] = None) -> Backend:
    """Instantiate the backend registered under ``name``.

    ``options`` are user-facing transport options (an
    :meth:`~repro.exec.policy.ExecutionPolicy.backend_options` dict) and must
    be consumed: passing them to a backend that declares no
    ``accepts_options`` fails loudly instead of silently ignoring a
    ``--transport``/``--hosts`` flag.
    """
    builder = BACKENDS.get(name)
    accepts = bool(getattr(builder, "accepts_options", False))
    if options and not accepts:
        raise ConfigurationError(
            f"backend {name!r} accepts no transport options "
            f"(got {sorted(options)}); use --backend remote"
        )
    if accepts:
        return builder(max_workers, **(options or {}))
    return builder(max_workers)
