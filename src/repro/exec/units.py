"""The distributed-ready work-unit contract.

A *work unit* is the atomic, relocatable job of the execution subsystem: one
``(spec-dict, seed)`` pair.  The spec dict is the plain-JSON form of a
:class:`~repro.scenarios.spec.ScenarioSpec` (``ScenarioSpec.to_dict()``), so a
unit survives JSON round-trips and can be executed by any process — or any
machine — that has the ``repro`` package installed.  Every backend, from the
in-process serial loop to the ``remote`` worker fleet, speaks exactly this
contract; nothing else crosses the dispatch boundary.

Units are dispatched in :class:`Chunk` groups to amortise per-unit dispatch
cost (IPC, pickling, spec re-hydration) over many tiny units.  A chunk never
mixes specs: it carries one spec dict plus the seed list it applies to, so
the spec is serialised once per chunk instead of once per unit, and the
worker-side :func:`execute_chunk` parses it at most once per process (see
``_SPEC_CACHE``).

Determinism is the ground rule: a unit is a pure function of
``(spec, seed)`` — every random stream derives from the seed — so any
backend, any chunking and any resume order produces byte-identical rows.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.exec.stats import PhaseTotals, collect_stats
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import content_key

__all__ = [
    "Chunk",
    "WorkUnit",
    "auto_chunk_size",
    "batch_key",
    "build_chunks",
    "execute_chunk",
    "execute_unit",
    "units_for_spec",
]

Row = Dict[str, Any]

#: Upper bound on auto-chosen chunk sizes (keeps progress/journal granularity
#: and load-balancing reasonable even for ten-thousand-unit sweeps).
_MAX_AUTO_CHUNK = 64

#: How many chunks per worker the auto-chunker aims for (load balancing slack).
_CHUNKS_PER_WORKER = 4


@dataclass(frozen=True)
class WorkUnit:
    """One ``(spec-dict, seed)`` job.

    ``spec_key`` is the content hash of the canonical spec dict; units built
    from the same scenario point share one key (and one parsed-spec cache
    entry in the workers).  ``unit_key`` identifies the unit inside a batch —
    it is what the sweep journal records as "done".
    """

    spec_dict: Mapping[str, Any]
    seed: int
    spec_key: str

    @property
    def unit_key(self) -> str:
        return f"{self.spec_key[:12]}:{self.seed}"


def units_for_spec(spec: ScenarioSpec) -> List[WorkUnit]:
    """One work unit per seed of ``spec`` (the spec dict/key built once)."""
    spec_dict = spec.to_dict()
    spec_key = content_key(spec_dict)
    return [WorkUnit(spec_dict=spec_dict, seed=int(s), spec_key=spec_key) for s in spec.seeds]


def batch_key(units: Sequence[WorkUnit]) -> str:
    """Content hash identifying a whole batch (the journal's file name).

    Derived from the ordered unit keys, so the same spec/grid/seed list maps
    to the same journal across runs while any change to the workload maps to
    a fresh one.
    """
    return content_key({"units": [unit.unit_key for unit in units]})


# ---------------------------------------------------------------------------
# chunks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Chunk:
    """A dispatchable group of same-spec units.

    ``start`` is the index of the chunk's first unit in the batch's unit
    list — results are re-assembled into batch order from it, whatever order
    chunks complete in.
    """

    index: int
    start: int
    spec_key: str
    spec_dict: Mapping[str, Any]
    seeds: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.seeds)

    # -- the JSON wire form (what the remote workers speak) -----------------

    def to_wire(self) -> str:
        """Encode for a JSON-only transport (queues, sockets, job files)."""
        return json.dumps(
            {
                "index": self.index,
                "start": self.start,
                "spec_key": self.spec_key,
                "spec": dict(self.spec_dict),
                "seeds": list(self.seeds),
            }
        )

    @classmethod
    def from_wire(cls, text: str) -> "Chunk":
        data = json.loads(text)
        return cls(
            index=int(data["index"]),
            start=int(data["start"]),
            spec_key=str(data["spec_key"]),
            spec_dict=data["spec"],
            seeds=tuple(int(s) for s in data["seeds"]),
        )


def auto_chunk_size(n_units: int, workers: int) -> int:
    """The default chunk size for ``n_units`` spread over ``workers``.

    Aims for a few chunks per worker (so stragglers re-balance) but caps the
    chunk size so journal/progress granularity stays useful; many-tiny-unit
    sweeps therefore get large chunks while small batches degrade to one unit
    per chunk.
    """
    if n_units <= 0:
        return 1
    target = math.ceil(n_units / max(1, workers * _CHUNKS_PER_WORKER))
    return max(1, min(_MAX_AUTO_CHUNK, target))


def build_chunks(units: Sequence[WorkUnit], chunk_size: int) -> List[Chunk]:
    """Split ``units`` into chunks of at most ``chunk_size``, in batch order.

    Chunks never span two specs: a contiguous same-spec run of units is
    chunked on its own, so every chunk carries exactly one spec dict.
    """
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    chunks: List[Chunk] = []
    i = 0
    while i < len(units):
        j = i
        spec_key = units[i].spec_key
        while j < len(units) and j - i < chunk_size and units[j].spec_key == spec_key:
            j += 1
        chunks.append(
            Chunk(
                index=len(chunks),
                start=i,
                spec_key=spec_key,
                spec_dict=units[i].spec_dict,
                seeds=tuple(unit.seed for unit in units[i:j]),
            )
        )
        i = j
    return chunks


# ---------------------------------------------------------------------------
# execution (runs inside workers — every backend funnels through here)
# ---------------------------------------------------------------------------

#: Per-process cache of parsed specs, keyed by spec content hash.  Chunked
#: dispatch re-sends the same spec dict with every chunk; without the cache a
#: worker re-parses the identical spec once per *unit* (the dominant fixed
#: cost of many-tiny-unit sweeps next to IPC).  FIFO-bounded so pathological
#: grids cannot grow it without limit; the lock keeps eviction safe when
#: several threads share this process's cache.
_SPEC_CACHE: Dict[str, ScenarioSpec] = {}
_SPEC_CACHE_MAX = 64
_SPEC_CACHE_LOCK = threading.Lock()


def _cached_spec(spec_key: str, spec_dict: Mapping[str, Any]) -> ScenarioSpec:
    spec = _SPEC_CACHE.get(spec_key)
    if spec is None:
        spec = ScenarioSpec.from_dict(spec_dict)
        with _SPEC_CACHE_LOCK:
            while len(_SPEC_CACHE) >= _SPEC_CACHE_MAX:
                _SPEC_CACHE.pop(next(iter(_SPEC_CACHE)))
            _SPEC_CACHE[spec_key] = spec
    return spec


def execute_unit(spec_dict: Mapping[str, Any], seed: int, spec_key: Optional[str] = None) -> Row:
    """Execute one work unit and return its metric row.

    ``spec_key`` enables the per-process spec cache; without it the spec is
    hashed first (still cheaper than a parse for repeated specs).
    """
    from repro.scenarios.executor import run_scenario_seed

    if spec_key is None:
        spec_key = content_key(spec_dict)
    return run_scenario_seed(_cached_spec(spec_key, spec_dict), seed)


def execute_chunk(
    payload: Tuple[str, Mapping[str, Any], Tuple[int, ...]],
) -> Tuple[List[Row], PhaseTotals]:
    """Top-level (hence picklable) chunk entry point of every local backend.

    Returns the rows and the units' phase totals, timed under a collector of
    the chunk's own; the backend folds them into the caller's collector with
    :func:`~repro.exec.stats.replay_phases`, wherever the chunk ran.
    """
    from repro.scenarios.executor import run_scenario_seed

    spec_key, spec_dict, seeds = payload
    spec = _cached_spec(spec_key, spec_dict)
    with collect_stats() as stats:
        rows = [run_scenario_seed(spec, seed) for seed in seeds]
    return rows, stats.phase_totals()
