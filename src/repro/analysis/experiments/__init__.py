"""The E1–E13 experiment implementations (indexed in :mod:`.catalog`).

Every experiment is an ordinary function that returns a list of row dicts;
``repro experiments`` runs each one from its committed config and, at full
scale, checks its catalog claim on the stored rows.
Default parameters are sized so the whole
suite completes on a laptop in minutes; every knob (sizes, rounds, seeds,
churn rates) is exposed so larger runs just pass bigger values.
"""

from repro.analysis.experiments.coloring import (
    experiment_e01_coloring_convergence,
    experiment_e02_palette_lemma,
    experiment_e03_conflict_resolution,
    experiment_e04_tdynamic_coloring,
)
from repro.analysis.experiments.mis import (
    experiment_e06_mis_edge_decay,
    experiment_e07_mis_convergence,
    experiment_e08_smis_freeze_decision,
)
from repro.analysis.experiments.framework import (
    experiment_e05_local_stability,
    experiment_e09_baseline_comparison,
    experiment_e10_adversary_sensitivity,
    experiment_e11_async_wakeup,
    experiment_e12_message_size,
    experiment_e13_ablations,
)
from repro.analysis.experiments.catalog import (
    EXPERIMENTS,
    ExperimentDef,
    experiment_defaults,
    run_experiment,
)

__all__ = [
    "EXPERIMENTS",
    "ExperimentDef",
    "experiment_defaults",
    "run_experiment",
    "experiment_e01_coloring_convergence",
    "experiment_e02_palette_lemma",
    "experiment_e03_conflict_resolution",
    "experiment_e04_tdynamic_coloring",
    "experiment_e05_local_stability",
    "experiment_e06_mis_edge_decay",
    "experiment_e07_mis_convergence",
    "experiment_e08_smis_freeze_decision",
    "experiment_e09_baseline_comparison",
    "experiment_e10_adversary_sensitivity",
    "experiment_e11_async_wakeup",
    "experiment_e12_message_size",
    "experiment_e13_ablations",
]
