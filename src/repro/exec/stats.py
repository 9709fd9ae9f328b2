"""Execution-phase timing: where a pipeline run actually spends its time.

The ROADMAP's "journal-aware ``repro bench`` timing splits" rung: instead of
one opaque wall-clock number per experiment, the runner and the scenario
work unit report *phases* — context/component setup, the simulated round
loop, metric extraction, journal bookkeeping, backend dispatch — into an
ambient :class:`StatsCollector` installed with :func:`collect_stats`.

Reporting is strictly opt-in and in-process: without an active collector
:func:`record_phase` is a no-op costing one global read, so steady-state
sweeps pay nothing.  Phase totals recorded inside ``process``-backend
workers stay in those processes — the dispatch phase then accounts for their
wall time — while the ``serial`` backend yields complete per-unit splits
(``repro bench --serial`` for the full breakdown) and ``remote`` workers
ship theirs back with every chunk.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = [
    "RateEstimator",
    "StatsCollector",
    "collect_stats",
    "record_phase",
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


class StatsCollector:
    """Thread-safe accumulator of ``phase -> (seconds, events)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds: Dict[str, float] = {}
        self._events: Dict[str, int] = {}

    def add(self, phase: str, seconds: float) -> None:
        with self._lock:
            self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds
            self._events[phase] = self._events.get(phase, 0) + 1

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
        been reported (serial and pooled backends measure nothing inside
        the worker).
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
