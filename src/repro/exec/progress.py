"""Progress reporting for long batch runs: rows/sec and ETA on stderr.

Kept deliberately dependency-free (no tqdm): one carriage-return line on a
terminal, plain appended lines when stderr is a pipe (CI logs), silence when
disabled.  The reporter measures *units completed per second of wall time*,
which is the number the executor-scaling benchmark optimises, so the live
display and the committed benchmark speak the same unit.

When the runner hands over its :class:`~repro.exec.stats.RateEstimator`
(``rate_source``), the displayed rows/sec and ETA come from the estimator's
smoothed throughput instead of the raw wall-clock average.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING, Optional, TextIO

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (stats imports nothing here)
    from repro.exec.stats import RateEstimator

__all__ = ["ProgressReporter"]

#: Minimum seconds between repaints (keeps tiny-unit sweeps from spamming).
_MIN_INTERVAL = 0.2


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class ProgressReporter:
    """Throttled ``done/total | rows/sec | ETA`` reporting.

    Parameters
    ----------
    total:
        Number of work units in the batch.
    label:
        Short prefix (usually the scenario/sweep label).
    enabled:
        When ``False`` every method is a no-op (the default execution path
        stays byte-for-byte silent).
    already_done:
        Units restored from a resume journal — counted in the display but
        excluded from the rows/sec rate (they cost no wall time this run).
    stream:
        Defaults to ``sys.stderr``; parameterised for tests.
    rate_source:
        Optional :class:`~repro.exec.stats.RateEstimator` fed by the caller;
        when it has observations its smoothed rate wins over the wall-clock
        average.
    """

    def __init__(
        self,
        total: int,
        *,
        label: str = "",
        enabled: bool = False,
        already_done: int = 0,
        stream: Optional[TextIO] = None,
        rate_source: Optional["RateEstimator"] = None,
    ) -> None:
        self.total = int(total)
        self.label = label
        self.enabled = bool(enabled)
        self._restored = int(already_done)
        self._done = int(already_done)
        self._stream = stream if stream is not None else sys.stderr
        self._rate_source = rate_source
        self._started = time.perf_counter()
        self._last_paint = 0.0
        self._isatty = bool(getattr(self._stream, "isatty", lambda: False)())
        if self.enabled and self._restored:
            self._paint(force=True)

    @property
    def done(self) -> int:
        """Units completed so far (including restored ones)."""
        return self._done

    def update(self, completed_units: int) -> None:
        """Record ``completed_units`` more finished units and maybe repaint."""
        self._done += int(completed_units)
        if self.enabled:
            self._paint()

    def finish(self) -> None:
        """Final repaint plus newline (terminal mode leaves the line behind)."""
        if not self.enabled:
            return
        self._paint(force=True)
        if self._isatty:
            self._stream.write("\n")
            self._stream.flush()

    # -- rendering ----------------------------------------------------------

    def _rate(self) -> float:
        if self._rate_source is not None:
            smoothed = self._rate_source.rate
            if smoothed is not None and smoothed > 0:
                return smoothed
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        return (self._done - self._restored) / elapsed

    def _paint(self, *, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_paint < _MIN_INTERVAL and self._done < self.total:
            return
        self._last_paint = now
        rate = self._rate()
        parts = [
            f"{self.label}: " if self.label else "",
            f"{self._done}/{self.total} units",
            f" | {rate:.1f} rows/s" if rate > 0 else "",
        ]
        if self._restored and self._done == self._restored:
            parts.append(f" | {self._restored} restored from journal")
        if 0 < rate and self._done < self.total:
            parts.append(f" | ETA {_format_eta((self.total - self._done) / rate)}")
        line = "".join(parts)
        if self._isatty:
            self._stream.write(f"\r{line:<79}")
        else:
            self._stream.write(line + "\n")
        self._stream.flush()
