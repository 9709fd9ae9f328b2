"""The batch runner: chunked dispatch, checkpointing, fallback, ordering.

:func:`run_units` is the single execution path of the pipeline — every
``run_scenario``/``sweep`` call (and through them the CLI, the experiments
and the benchmarks) funnels its work units through here.  The runner

1. consults the sweep journal (when checkpointing is on) and drops every
   unit a previous killed run already completed,
2. groups the remaining units into same-spec chunks
   (:func:`~repro.exec.units.build_chunks`; explicit or auto chunk size),
3. streams the chunks through the selected backend, journalling every
   finished unit the moment its row arrives,
4. falls back to the serial backend for the *remaining* chunks when a pooled
   backend fails as a transport (no fork/spawn in the sandbox, dead workers,
   unpicklable ad-hoc components) — completed work is kept, and a genuine
   unit-level error re-raises with its real traceback from the serial path,
5. re-assembles rows in batch order, so the output is byte-identical across
   backends, chunkings and resume histories.

Fault injection for tests and the CI resume gate: setting the environment
variable ``REPRO_EXEC_INTERRUPT_AFTER`` to an integer makes the runner raise
:class:`KeyboardInterrupt` after that many freshly computed units have been
journalled — a deterministic stand-in for "the machine died mid-sweep".
Its worker-side siblings ``REPRO_EXEC_WORKER_INTERRUPT_AFTER`` /
``REPRO_EXEC_WORKER_HANG_AFTER`` (see :mod:`repro.exec.remote.worker`) kill
or wedge one *remote worker* mid-chunk instead, exercising the dispatcher's
re-dispatch path rather than the journal.
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError
from typing import Dict, List, Optional, Sequence

from repro.errors import RegistryError
from repro.exec.backends import Backend, BackendError, make_backend
from repro.exec.journal import SweepJournal
from repro.exec.policy import ExecutionPolicy, default_workers, resolve_policy
from repro.exec.progress import ProgressReporter
from repro.exec.stats import EXEC_DISPATCH, EXEC_JOURNAL, RateEstimator, timed_phase
from repro.exec.units import Chunk, Row, WorkUnit, auto_chunk_size, build_chunks
from repro.obs.trace import emit

__all__ = ["INTERRUPT_ENV", "run_units"]

#: Fault-injection knob: interrupt after N freshly journalled units.
INTERRUPT_ENV = "REPRO_EXEC_INTERRUPT_AFTER"

#: Transport-level failures that trigger the serial fallback.  Everything
#: else is a real bug in a unit and propagates unchanged.
_FALLBACK_ERRORS = (
    OSError,
    PicklingError,
    PermissionError,
    ImportError,
    BrokenProcessPool,
    RegistryError,
    BackendError,
)


def _effective_backend(policy: ExecutionPolicy, n_pending: int) -> tuple[str, int]:
    """Resolve ``(backend name, worker count)`` for this batch.

    One-unit batches and single-CPU hosts (when no explicit worker count forces a pool) run
    serially, because a process pool cannot beat the in-process loop there.
    """
    workers = policy.max_workers or default_workers(n_pending)
    name = policy.backend
    if n_pending <= 1:
        return "serial", 1
    if policy.max_workers is None and workers <= 1 and name == "process":
        return "serial", 1
    return name, workers


class _Interrupter:
    """Counts freshly completed units and fires the fault-injection hook."""

    def __init__(self) -> None:
        raw = os.environ.get(INTERRUPT_ENV)
        self.after: Optional[int] = int(raw) if raw else None
        self.fresh = 0

    def tick(self, completed_units: int) -> None:
        self.fresh += completed_units
        if self.after is not None and self.fresh >= self.after:
            raise KeyboardInterrupt(
                f"injected interrupt after {self.fresh} units ({INTERRUPT_ENV}={self.after})"
            )


def run_units(
    units: Sequence[WorkUnit],
    policy: Optional[ExecutionPolicy] = None,
    *,
    label: str = "",
) -> List[Row]:
    """Execute ``units`` under ``policy`` and return their rows in batch order."""
    policy = policy if policy is not None else resolve_policy()
    if not units:
        return []

    started = time.perf_counter()
    journal: Optional[SweepJournal] = None
    completed: Dict[int, Row] = {}
    if policy.journal_dir:
        with timed_phase(EXEC_JOURNAL):
            journal = SweepJournal.for_batch(policy.journal_dir, units)
            completed = journal.begin(resume=policy.resume)
        if completed:
            emit("journal_restore", restored=len(completed))

    rows: List[Optional[Row]] = [completed.get(i) for i in range(len(units))]
    pending = [i for i in range(len(units)) if i not in completed]
    estimator = RateEstimator()
    progress = ProgressReporter(
        len(units),
        label=label,
        enabled=policy.progress,
        already_done=len(completed),
        rate_source=estimator,
    )
    interrupter = _Interrupter()

    backend_name, workers = _effective_backend(policy, len(pending))
    chunk_size = policy.chunk_size or auto_chunk_size(len(pending), workers)
    pending_units = [units[i] for i in pending]
    chunks = build_chunks(pending_units, chunk_size)
    emit(
        "batch_begin",
        label=label,
        units=len(units),
        restored=len(completed),
        backend=backend_name,
        workers=workers,
        chunks=len(chunks),
    )

    received: set = set()

    def absorb(chunk: Chunk, chunk_rows: List[Row]) -> None:
        if len(chunk_rows) != len(chunk.seeds):
            raise BackendError(
                f"backend returned {len(chunk_rows)} rows for a {len(chunk.seeds)}-unit chunk"
            )
        for offset, row in enumerate(chunk_rows):
            index = pending[chunk.start + offset]
            rows[index] = row
            if journal is not None:
                with timed_phase(EXEC_JOURNAL):
                    journal.record(index, row)
        received.add(chunk.index)
        estimator.observe_batch(len(chunk.seeds))
        emit("chunk_done", chunk=chunk.index, units=len(chunk.seeds))
        progress.update(len(chunk.seeds))
        interrupter.tick(len(chunk.seeds))

    # Topologies shared by several units of a pooled batch are published to
    # shared memory before dispatch, so every worker maps one copy of the
    # adjacency arrays instead of regenerating (and duplicating) the graph.
    # The runner owns the segments: they are unlinked when the batch ends,
    # whatever way it ends.
    shm_pool = None
    if backend_name in ("process", "remote") and len(chunks) > 1:
        from repro.exec.shm import publish_for_chunks

        shm_pool = publish_for_chunks(chunks)
        if shm_pool is not None:
            emit(
                "shm_publish",
                segments=shm_pool.segments,
                bytes=shm_pool.published_bytes,
            )

    try:
        # When the batch was downgraded away from the policy's backend (one
        # pending unit, single-CPU host), the policy's transport options belong
        # to the backend that was overridden — serial rejects them by design.
        options = policy.backend_options() if backend_name == policy.backend else {}
        backend: Backend = make_backend(backend_name, workers, options or None)
        try:
            with backend, timed_phase(EXEC_DISPATCH):
                for chunk_index, chunk_rows in backend.submit_batch(chunks):
                    absorb(chunks[chunk_index], chunk_rows)
        except _FALLBACK_ERRORS as exc:
            # The transport failed; whatever chunks did come back are kept
            # (and journalled).  The serial loop computes identical rows, and
            # genuine unit errors re-raise from it with their real traceback.
            serial = make_backend("serial", 1)
            remaining = [chunk for chunk in chunks if chunk.index not in received]
            emit(
                "serial_fallback",
                error=type(exc).__name__,
                chunks_left=len(remaining),
            )
            with timed_phase(EXEC_DISPATCH):
                for chunk_index, chunk_rows in serial.submit_batch(remaining):
                    absorb(chunks[chunk_index], chunk_rows)
    except BaseException:
        if journal is not None:
            journal.close()  # keep the checkpoint for --resume
        raise
    finally:
        if shm_pool is not None:
            shm_pool.close()
    progress.finish()
    missing = [i for i, row in enumerate(rows) if row is None]
    if missing:  # a backend dropped work on the floor — never silently truncate
        raise BackendError(f"{len(missing)} of {len(units)} units produced no row: {missing[:10]}")
    if journal is not None:
        journal.complete()
    emit(
        "batch_end",
        label=label,
        units=len(units),
        seconds=round(time.perf_counter() - started, 6),
    )
    return rows  # type: ignore[return-value]
