"""Run telemetry: one recorder for phase times, event counts and the trace.

Everything a run reports about itself goes through this module, and each
fact is recorded once:

* :func:`timed_phase` / :func:`record_phase` add ``(seconds, 1)`` under a
  phase name (component setup per work unit, the round loop, metric
  extraction, journal writes, backend dispatch);
* :func:`emit` adds ``(0, 1)`` under an event name and, when tracing is on,
  writes the event as one NDJSON line.

The ambient :class:`StatsCollector` installed by :func:`collect_stats` holds
the ``{name: (seconds, count)}`` table; :meth:`StatsCollector.as_provenance`
folds it into the ``{"phases": …, "events": …}`` block ``ResultsStore.put``
attaches to an entry's provenance.  Worker processes run their units under
a collector of their own and ship the table home
(:meth:`StatsCollector.phase_totals`), and the backend folds it into the
caller's collector with :func:`replay_phases` — so ``serial``, ``process``
and ``remote`` report the same phase and event counts.

Trace lines are the *when/where* of a run: round lifecycle from the
simulator and the array kernel (the per-round ``round`` event is trace-only
and is not counted), unit and chunk lifecycle from the executor and the
runner, dispatch/heartbeat/re-dispatch decisions from the remote fabric.
Each line (sorted keys, compact separators) carries a per-process sequence
number, the emitting pid and a wall-clock timestamp, so traces from several
processes appending to one file can be interleaved and re-ordered.

Tracing has one switch, the ``REPRO_TRACE=path`` environment variable: each
process probes it lazily once and appends to ``path``.  :func:`trace_to`
(what the CLI ``--trace`` flag installs) truncates ``path`` and sets the
variable for the block, so pooled and remote workers started inside it
append to the same file.

The house invariant holds: recording never touches RNG state, iteration
order, or any value that lands in a store row — store entries are
byte-identical with tracing on or off.  Without a collector and a sink,
:func:`emit` and :func:`timed_phase` cost a couple of global reads, so
steady-state sweeps pay nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "EVENT_SCHEMA",
    "PhaseTotals",
    "SCHEMA_VERSION",
    "StatsCollector",
    "TRACE_ENV",
    "TraceSink",
    "active_sink",
    "collect_stats",
    "emit",
    "read_trace",
    "record_phase",
    "refresh_from_env",
    "replay_phases",
    "timed_phase",
    "trace_to",
    "validate_event",
    "validate_trace",
]

TRACE_ENV = "REPRO_TRACE"
SCHEMA_VERSION = "repro-trace/1"

#: Required fields (name -> type) per event, beyond the common envelope
#: ``{event: str, seq: int, pid: int, t: float}``.  Extra fields are
#: allowed — the schema is a floor, not a ceiling.
EVENT_SCHEMA: Dict[str, Dict[str, type]] = {
    # simulator / kernel round lifecycle
    "round": {
        "round": int,
        "mode": str,
        "awake": int,
        "edges": int,
        "composed": int,
        "frontier": int,
        "changed": int,
        "quiescent": bool,
    },
    # scenario executor unit lifecycle
    "unit_begin": {"label": str, "seed": int, "algorithm": str, "adversary": str},
    "unit_end": {"seed": int, "rounds": int, "delivery": str},
    # exec runner batch/chunk lifecycle
    "batch_begin": {
        "label": str,
        "units": int,
        "restored": int,
        "backend": str,
        "workers": int,
        "chunks": int,
    },
    "batch_end": {"label": str, "units": int, "seconds": float},
    "journal_restore": {"restored": int},
    "chunk_done": {"chunk": int, "units": int},
    "shm_publish": {"segments": int, "bytes": int},
    "serial_fallback": {"error": str, "chunks_left": int},
    # remote dispatcher decisions
    "dispatch": {"chunk": int, "units": int, "worker": str, "attempt": int},
    "redispatch": {"chunk": int, "attempt": int, "backoff": float},
    "worker_lost": {"worker": str, "reason": str, "inflight": int},
    "ping": {"worker": str},
    "chunk_result": {
        "chunk": int,
        "worker": str,
        "units": int,
        "seconds": float,
        "timings": dict,
    },
}

_ENVELOPE: Dict[str, type] = {"event": str, "seq": int, "pid": int, "t": float}


def _jsonable(value: Any) -> Any:
    """Best-effort converter for numpy scalars and other ``.item()`` types."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"trace event field is not JSON-serialisable: {value!r}")


class TraceSink:
    """A thread-safe NDJSON event writer appending to one file.

    Every :meth:`emit` writes one line and flushes, so a killed process
    loses at most the line being written — the same torn-line tolerance
    the exec journal already has.  The file is always opened for append:
    worker processes write to the same path, and a truncating handle in the
    parent would overwrite their lines.
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0

    def emit(self, event: str, **fields: Any) -> None:
        # pid is looked up per event, not cached: fork-started pool workers
        # inherit the parent's sink object, and a cached pid would mislabel
        # every worker-side event as the parent's.
        record = {"event": event, "t": round(time.time(), 6), "pid": os.getpid()}
        record.update(fields)
        with self._lock:
            record["seq"] = self._seq
            self._seq += 1
            line = json.dumps(
                record, sort_keys=True, separators=(",", ":"), default=_jsonable
            )
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


#: The sink of this process, opened lazily from ``REPRO_TRACE`` on first use.
_ENV_SINK: Optional[TraceSink] = None
_ENV_PROBED = False


def active_sink() -> Optional[TraceSink]:
    """The sink events should go to, or ``None`` when tracing is off."""
    global _ENV_PROBED, _ENV_SINK
    if not _ENV_PROBED:
        _ENV_PROBED = True
        path = os.environ.get(TRACE_ENV)
        if path:
            _ENV_SINK = TraceSink(path)
    return _ENV_SINK


@contextmanager
def trace_to(path: "str | Path") -> Iterator[None]:
    """Trace the block to ``path``, worker processes included.

    Truncates ``path`` and sets ``REPRO_TRACE`` for the block, so this
    process and the pooled and remote workers started inside it append to
    the same file; the previous value is restored on exit.
    """
    path = Path(path).resolve()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("", encoding="utf-8")
    previous = os.environ.get(TRACE_ENV)
    os.environ[TRACE_ENV] = str(path)
    refresh_from_env()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(TRACE_ENV, None)
        else:
            os.environ[TRACE_ENV] = previous
        refresh_from_env()


def refresh_from_env() -> None:
    """Close this process's sink and probe ``REPRO_TRACE`` again on next use."""
    global _ENV_PROBED, _ENV_SINK
    if _ENV_SINK is not None:
        _ENV_SINK.close()
    _ENV_SINK = None
    _ENV_PROBED = False


# ---------------------------------------------------------------------------
# the recorder: one {name: (seconds, count)} table per run
# ---------------------------------------------------------------------------

#: A recorder table as a worker ships it home: ``{name: (seconds, count)}``.
PhaseTotals = Dict[str, Tuple[float, int]]


class StatsCollector:
    """Thread-safe ``{name: (seconds, count)}`` table of one run.

    Phases and events share the table; :meth:`as_provenance` tells them
    apart by :data:`EVENT_SCHEMA` membership.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._table: Dict[str, List[float]] = {}

    def add(self, name: str, seconds: float, count: int = 1) -> None:
        with self._lock:
            entry = self._table.setdefault(name, [0.0, 0])
            entry[0] += seconds
            entry[1] += count

    def seconds(self, name: str) -> float:
        """Total seconds recorded for ``name`` (0.0 if never reported)."""
        return self._table.get(name, (0.0, 0))[0]

    def events(self, name: str) -> int:
        """Number of times ``name`` was reported."""
        return self._table.get(name, (0.0, 0))[1]

    def phase_totals(self) -> PhaseTotals:
        """``{name: (seconds, count)}`` snapshot, the form :func:`replay_phases` folds in."""
        with self._lock:
            return {name: (seconds, count) for name, (seconds, count) in self._table.items()}

    def as_provenance(self) -> Dict[str, Any]:
        """The JSON-able ``{"phases": …, "events": …}`` block; empty sections are omitted."""
        phases: Dict[str, Any] = {}
        events: Dict[str, int] = {}
        for name, (seconds, count) in sorted(self.phase_totals().items()):
            if name in EVENT_SCHEMA:
                events[name] = count
            else:
                phases[name] = {"seconds": round(seconds, 4), "events": count}
        block: Dict[str, Any] = {}
        if phases:
            block["phases"] = phases
        if events:
            block["events"] = events
        return block


#: The active collector (None = reporting disabled).  A plain global, not a
#: context-var, so every thread of the process reports into the collector
#: the main thread installed.
_ACTIVE: Optional[StatsCollector] = None


@contextmanager
def collect_stats() -> Iterator[StatsCollector]:
    """Install a collector for the duration of the block and yield it.

    Nested blocks stack: the innermost collector receives the reports.
    """
    global _ACTIVE
    collector = StatsCollector()
    previous = _ACTIVE
    _ACTIVE = collector
    try:
        yield collector
    finally:
        _ACTIVE = previous


def record_phase(phase: str, seconds: float) -> None:
    """Report ``seconds`` spent in ``phase`` (no-op without a collector)."""
    collector = _ACTIVE
    if collector is not None:
        collector.add(phase, seconds)


@contextmanager
def timed_phase(phase: str) -> Iterator[None]:
    """Time the block and report it (near-zero cost without a collector)."""
    if _ACTIVE is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        record_phase(phase, time.perf_counter() - start)


def emit(event: str, **fields: Any) -> None:
    """Record ``event``: count it, and write its NDJSON line when tracing is on."""
    collector = _ACTIVE
    if collector is not None:
        collector.add(event, 0.0)
    sink = active_sink()
    if sink is not None:
        sink.emit(event, **fields)


def replay_phases(totals: Mapping[str, Sequence[float]]) -> None:
    """Fold a worker's ``{name: (seconds, count)}`` table into the active collector."""
    collector = _ACTIVE
    if collector is not None:
        for name, (seconds, count) in totals.items():
            collector.add(name, seconds, int(count))


# ---------------------------------------------------------------------------
# validation / reading
# ---------------------------------------------------------------------------


def _ok(value: Any, ftype: type) -> bool:
    if ftype in (int, float) and isinstance(value, bool):
        return False  # bool is an int subclass; reject it for numeric fields
    if ftype is float:
        return isinstance(value, (int, float))
    return isinstance(value, ftype)


def validate_event(record: Mapping[str, Any]) -> List[str]:
    """Problems with one decoded event record (empty list = valid)."""
    problems: List[str] = []
    for name, ftype in _ENVELOPE.items():
        if name not in record:
            problems.append(f"missing field {name!r}")
        elif not _ok(record[name], ftype):
            problems.append(f"field {name!r} is not {ftype.__name__}")
    event = record.get("event")
    if not isinstance(event, str):
        return problems
    schema = EVENT_SCHEMA.get(event)
    if schema is None:
        problems.append(f"unknown event {event!r}")
        return problems
    for name, ftype in schema.items():
        if name not in record:
            problems.append(f"{event}: missing field {name!r}")
        elif not _ok(record[name], ftype):
            problems.append(f"{event}: field {name!r} is not {ftype.__name__}")
    return problems


def read_trace(path: "str | Path") -> List[Dict[str, Any]]:
    """Decode every line of an NDJSON trace (strict: bad JSON raises)."""
    events: List[Dict[str, Any]] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{path}:{lineno}: invalid trace line: {exc}")
    return events


def validate_trace(path: "str | Path") -> List[str]:
    """Line-numbered schema problems for a whole trace file (tolerant)."""
    problems: List[str] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"line {lineno}: invalid JSON ({exc.msg})")
                continue
            if not isinstance(record, dict):
                problems.append(f"line {lineno}: not a JSON object")
                continue
            for problem in validate_event(record):
                problems.append(f"line {lineno}: {problem}")
    return problems

