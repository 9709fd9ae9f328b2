"""Run telemetry: where a pipeline run spent its time, and what it counted.

One ambient :class:`StatsCollector`, installed with :func:`collect_stats`,
holds everything a run reports about itself: *phase* totals — per work
unit the component setup, the simulated round loop and metric extraction,
plus sweep-journal bookkeeping and backend dispatch wall time — and named
*counters*, *gauges* and *histogram* summaries (``exec.units``,
``exec.remote.redispatched``, ``exec.chunk_units``, …).
:meth:`StatsCollector.as_provenance` folds the lot into the JSON-able block
``ResultsStore.put`` attaches to an entry's provenance; provenance never
takes part in entry identity or row comparison, so stored rows stay
byte-identical.

Reporting is strictly opt-in: without an active collector
:func:`record_phase`, :func:`timed_phase` and the ``metric_*`` helpers are
no-ops costing one global read, so steady-state sweeps pay nothing.

Phases timed inside workers take one path on every backend:
:func:`~repro.exec.units.execute_chunk` (and the remote worker loop) runs
its units under its own collector and returns :meth:`phase totals
<StatsCollector.phase_totals>` with the rows, and the backend folds them
into the caller's collector with :func:`replay_phases`.  ``serial``,
``process`` and ``remote`` therefore report the same unit-phase keys, one
event per unit.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

__all__ = [
    "PhaseTotals",
    "RateEstimator",
    "StatsCollector",
    "collect_stats",
    "metric_gauge",
    "metric_inc",
    "metric_observe",
    "record_phase",
    "replay_phases",
    "timed_phase",
]

#: Phase names the pipeline reports (others are allowed; these are the
#: conventional ones surfaced by ``repro bench``): component building per
#: work unit, the simulated round loop, metric/probe extraction,
#: sweep-journal resume reads + record writes, and backend dispatch wall
#: time (including pooled workers).
UNIT_SETUP = "unit_setup"
UNIT_ROUNDS = "unit_rounds"
UNIT_METRICS = "unit_metrics"
EXEC_JOURNAL = "exec_journal"
EXEC_DISPATCH = "exec_dispatch"


#: Phase totals as a worker ships them back: ``{phase: (seconds, events)}``.
PhaseTotals = Dict[str, Tuple[float, int]]


class StatsCollector:
    """Thread-safe phase totals, counters, gauges and histogram summaries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds: Dict[str, float] = {}
        self._events: Dict[str, int] = {}
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, float]] = {}

    def add(self, phase: str, seconds: float, events: int = 1) -> None:
        with self._lock:
            self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
            self._events[phase] = self._events.get(phase, 0) + events

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        value = float(value)
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = {"count": 1, "total": value, "min": value, "max": value}
            else:
                hist["count"] += 1
                hist["total"] += value
                hist["min"] = min(hist["min"], value)
                hist["max"] = max(hist["max"], value)

    def seconds(self, phase: str) -> float:
        """Total seconds recorded for ``phase`` (0.0 if never reported)."""
        return self._seconds.get(phase, 0.0)

    def events(self, phase: str) -> int:
        """Number of times ``phase`` was reported."""
        return self._events.get(phase, 0)

    def as_dict(self) -> Dict[str, float]:
        """``{phase: seconds}`` snapshot."""
        with self._lock:
            return dict(self._seconds)

    def phase_totals(self) -> PhaseTotals:
        """``{phase: (seconds, events)}`` snapshot, the form :func:`replay_phases` folds in."""
        with self._lock:
            return {
                phase: (seconds, self._events[phase]) for phase, seconds in self._seconds.items()
            }

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Dict[str, float]]:
        hist = self._histograms.get(name)
        return dict(hist) if hist is not None else None

    def as_provenance(self) -> Dict[str, Any]:
        """One JSON-able telemetry block; empty sections are omitted."""
        block: Dict[str, Any] = {}
        with self._lock:
            if self._seconds:
                block["phases"] = {
                    name: {"seconds": round(seconds, 4), "events": self._events[name]}
                    for name, seconds in sorted(self._seconds.items())
                }
            if self._counters:
                block["counters"] = dict(sorted(self._counters.items()))
            if self._gauges:
                block["gauges"] = {
                    name: round(value, 6) for name, value in sorted(self._gauges.items())
                }
            if self._histograms:
                block["histograms"] = {
                    name: {
                        "count": int(hist["count"]),
                        "total": round(hist["total"], 6),
                        "min": round(hist["min"], 6),
                        "max": round(hist["max"], 6),
                        "mean": round(hist["total"] / hist["count"], 6),
                    }
                    for name, hist in sorted(self._histograms.items())
                }
        return block


class RateEstimator:
    """EMA model of observed unit throughput and per-unit cost.

    The runner feeds it completion events (:meth:`observe_batch`) and remote
    workers feed it their measured wall time per dispatch
    (:meth:`observe_cost`); the progress reporter reads :attr:`rate` /
    :attr:`seconds_per_unit` for a stats-derived ETA that settles quickly
    and tracks load changes, instead of the raw cumulative average, and the
    remote dispatcher reads :attr:`seconds_per_unit` to size outgoing
    chunks.  Thread-safe: reader threads and the dispatch loop may report
    concurrently.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        self._alpha = float(alpha)
        self._lock = threading.Lock()
        self._rate: Optional[float] = None
        self._cost: Optional[float] = None
        self._last_batch = time.perf_counter()

    def _blend(self, previous: Optional[float], sample: float) -> float:
        return sample if previous is None else previous + self._alpha * (sample - previous)

    def observe_batch(self, units: int) -> None:
        """``units`` more completions arrived (wall interval measured here)."""
        now = time.perf_counter()
        with self._lock:
            interval = now - self._last_batch
            self._last_batch = now
            if units > 0 and interval > 0:
                self._rate = self._blend(self._rate, units / interval)

    def observe_cost(self, units: int, seconds: float) -> None:
        """A worker reports ``units`` computed in ``seconds`` of its wall time."""
        if units > 0 and seconds > 0:
            with self._lock:
                self._cost = self._blend(self._cost, seconds / units)

    @property
    def rate(self) -> Optional[float]:
        """Smoothed units/second throughput (``None`` before any observation).

        Falls back to the inverse worker-side cost when only workers have
        reported — a single-worker approximation, but better than showing
        nothing before the first dispatcher-side completion.
        """
        if self._rate is not None:
            return self._rate
        return (1.0 / self._cost) if self._cost else None

    @property
    def seconds_per_unit(self) -> Optional[float]:
        """Smoothed worker-side cost of one unit (``None`` without reports).

        Falls back to the inverse throughput when no worker-side cost has
        been reported (only remote workers report one).
        """
        if self._cost is not None:
            return self._cost
        return (1.0 / self._rate) if self._rate else None


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


def replay_phases(totals: Mapping[str, Sequence[float]]) -> None:
    """Fold a worker's ``{phase: (seconds, events)}`` totals into the active collector."""
    collector = _ACTIVE
    if collector is not None:
        for phase, (seconds, events) in totals.items():
            collector.add(phase, seconds, int(events))


def metric_inc(name: str, value: int = 1) -> None:
    """Bump counter ``name`` (no-op without a collector)."""
    collector = _ACTIVE
    if collector is not None:
        collector.inc(name, value)


def metric_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op without a collector)."""
    collector = _ACTIVE
    if collector is not None:
        collector.set_gauge(name, value)


def metric_observe(name: str, value: float) -> None:
    """Add a sample to histogram ``name`` (no-op without a collector)."""
    collector = _ACTIVE
    if collector is not None:
        collector.observe(name, value)
