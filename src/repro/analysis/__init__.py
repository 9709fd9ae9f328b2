"""Analysis and experiment harness.

* :mod:`repro.analysis.conflicts` — how long adversarial colour conflicts last.
* :mod:`repro.analysis.stability` — output-change statistics over traces.
* :mod:`repro.analysis.convergence` — rounds-to-completion measurements.
* :mod:`repro.analysis.quality` — solution-quality yardsticks (colour counts,
  MIS size) against sequential greedy references.
* :mod:`repro.analysis.sweep` — aggregation of per-seed rows.
* :mod:`repro.analysis.report` — plain-text tables for experiment rows.
* :mod:`repro.analysis.experiments` — the E1–E13 experiment implementations
  indexed in :mod:`repro.analysis.experiments.catalog` (each returns
  structured rows; the catalog pairs each with its paper claim).
"""

from repro.analysis.conflicts import conflict_resolution_times
from repro.analysis.stability import (
    output_change_counts,
    changes_per_round,
    region_change_count,
    stability_summary,
)
from repro.analysis.convergence import (
    first_round_all_decided,
    rounds_to_completion,
    completion_round_for_nodes,
)
from repro.analysis.quality import coloring_quality, mis_quality
from repro.analysis.sweep import Replication, aggregate_rows
from repro.analysis.report import format_table, rows_to_csv

__all__ = [
    "conflict_resolution_times",
    "output_change_counts",
    "changes_per_round",
    "region_change_count",
    "stability_summary",
    "first_round_all_decided",
    "rounds_to_completion",
    "completion_round_for_nodes",
    "coloring_quality",
    "mis_quality",
    "Replication",
    "aggregate_rows",
    "format_table",
    "rows_to_csv",
    "experiments",
]


def __getattr__(name):
    # Imported lazily (PEP 562): the experiments build on repro.scenarios,
    # which itself imports this package — eager import would be a cycle.
    if name == "experiments":
        import importlib

        return importlib.import_module("repro.analysis.experiments")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
