"""Exec's telemetry vocabulary: phase names and the throughput estimate.

The run recorder itself — :func:`collect_stats`, :func:`timed_phase`,
:func:`record_phase`, :func:`replay_phases` and the
:class:`StatsCollector` table they fill — lives in :mod:`repro.obs.trace`
and is re-exported here, so exec code and its callers import one module.
Phases timed inside workers take one path on every backend:
:func:`~repro.exec.units.execute_chunk` (and the remote worker loop) runs
its units under its own collector and returns the :meth:`table
<StatsCollector.phase_totals>` with the rows, and the backend folds it into
the caller's collector with :func:`replay_phases`.  ``serial``, ``process``
and ``remote`` therefore report the same phase and event counts.

:class:`RateEstimator` is not telemetry: it is the runner's ETA and the
remote dispatcher's chunk-sizing estimate.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.obs.trace import (
    PhaseTotals,
    StatsCollector,
    collect_stats,
    record_phase,
    replay_phases,
    timed_phase,
)

__all__ = [
    "EXEC_DISPATCH",
    "EXEC_JOURNAL",
    "PhaseTotals",
    "RateEstimator",
    "StatsCollector",
    "UNIT_METRICS",
    "UNIT_ROUNDS",
    "UNIT_SETUP",
    "collect_stats",
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
