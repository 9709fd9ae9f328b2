"""Aggregation of per-seed rows.

Every experiment in :mod:`repro.analysis.experiments` repeats each
configuration over several seeds (a :class:`~repro.scenarios.ScenarioResult`
holds one row per seed) and reports means (and standard deviations where
meaningful).  The helpers here keep that boilerplate in one place and make
the aggregation rules explicit and testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

__all__ = ["Replication", "aggregate_rows"]

Row = Dict[str, float]


@dataclass(frozen=True)
class Replication:
    """The per-seed results of one experiment configuration."""

    label: str
    rows: Sequence[Row]

    def mean(self, key: str) -> float:
        """Mean of ``key`` over the replicas (NaN entries are skipped)."""
        values = [row[key] for row in self.rows if key in row and not math.isnan(row[key])]
        return sum(values) / len(values) if values else float("nan")

    def std(self, key: str) -> float:
        """Population standard deviation of ``key`` over the replicas."""
        values = [row[key] for row in self.rows if key in row and not math.isnan(row[key])]
        if not values:
            return float("nan")
        mean = sum(values) / len(values)
        return math.sqrt(sum((value - mean) ** 2 for value in values) / len(values))

    def max(self, key: str) -> float:
        """Maximum of ``key`` over the replicas."""
        values = [row[key] for row in self.rows if key in row and not math.isnan(row[key])]
        return max(values) if values else float("nan")


def aggregate_rows(
    replication: Replication,
    *,
    mean_keys: Sequence[str] = (),
    std_keys: Sequence[str] = (),
    max_keys: Sequence[str] = (),
    extra: Mapping[str, float] | None = None,
) -> Row:
    """Collapse a replication into one row of means / stds / maxima."""
    row: Row = dict(extra or {})
    for key in mean_keys:
        row[f"{key}_mean"] = replication.mean(key)
    for key in std_keys:
        row[f"{key}_std"] = replication.std(key)
    for key in max_keys:
        row[f"{key}_max"] = replication.max(key)
    row["replicas"] = float(len(replication.rows))
    return row
