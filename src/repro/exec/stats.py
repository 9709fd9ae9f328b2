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

:class:`RateEstimator` is not telemetry: it is the progress display's
smoothed throughput.
"""

from __future__ import annotations

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
    "metric_phase",
    "record_phase",
    "replay_phases",
    "timed_phase",
]

#: Phase names the pipeline reports (others are allowed; these are the
#: conventional ones ``repro log`` / ``repro report`` render from an entry's
#: provenance): component building per
#: work unit, the simulated round loop, metric/probe extraction (and each
#: metric's own share of it, under :func:`metric_phase`),
#: sweep-journal resume reads + record writes, and backend dispatch wall
#: time (including pooled workers).
UNIT_SETUP = "unit_setup"
UNIT_ROUNDS = "unit_rounds"
UNIT_METRICS = "unit_metrics"
EXEC_JOURNAL = "exec_journal"
EXEC_DISPATCH = "exec_dispatch"


def metric_phase(name: str) -> str:
    """The phase one registered metric's own time is recorded under, inside
    :data:`UNIT_METRICS` (``unit_metrics:validity``)."""
    return f"{UNIT_METRICS}:{name}"


class RateEstimator:
    """EMA of observed unit throughput: the progress display's rows/sec and ETA.

    The runner (and ``repro verify``) feed it completion events
    (:meth:`observe_batch`); :class:`~repro.exec.progress.ProgressReporter`
    reads :attr:`rate`, which settles quickly and tracks load changes where
    the raw cumulative average would lag.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        self._alpha = float(alpha)
        self._rate: Optional[float] = None
        self._last_batch = time.perf_counter()

    def observe_batch(self, units: int) -> None:
        """``units`` more completions arrived (wall interval measured here)."""
        now = time.perf_counter()
        interval = now - self._last_batch
        self._last_batch = now
        if units > 0 and interval > 0:
            sample = units / interval
            previous = self._rate
            self._rate = sample if previous is None else previous + self._alpha * (sample - previous)

    @property
    def rate(self) -> Optional[float]:
        """Smoothed units/second throughput (``None`` before any observation)."""
        return self._rate
