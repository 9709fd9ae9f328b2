"""The E1–E13 experiment catalog: stable ids and paper claims for the pipeline.

The experiment implementations are ordinary functions; the catalog gives each
one a short stable id ("e01" … "e13") so that config files
(``configs/experiments/*.json``), the ``repro`` CLI and the tests all refer
to the same entry point by name — the same move the scenario registries made
for components.

:func:`run_experiment` is the single execution path: every consumer (CLI,
tests) goes through it, so config-driven runs are byte-identical to direct
function calls by construction.  Each entry also carries a *claim*: a
predicate over the experiment's rows that returns one message per violated
paper guarantee (``[]`` when the guarantee holds).  A full-scale ``repro
experiments`` run checks it on the rows it stores and exits 1 when any claim
fails.
"""

from __future__ import annotations

import inspect
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.scenarios.registry import suggestion_hint
from repro.analysis.experiments.coloring import (
    experiment_e01_coloring_convergence,
    experiment_e02_palette_lemma,
    experiment_e03_conflict_resolution,
    experiment_e04_tdynamic_coloring,
)
from repro.analysis.experiments.framework import (
    experiment_e05_local_stability,
    experiment_e09_baseline_comparison,
    experiment_e10_adversary_sensitivity,
    experiment_e11_async_wakeup,
    experiment_e12_message_size,
    experiment_e13_ablations,
)
from repro.analysis.experiments.mis import (
    experiment_e06_mis_edge_decay,
    experiment_e07_mis_convergence,
    experiment_e08_smis_freeze_decision,
)

__all__ = ["EXPERIMENTS", "ExperimentDef", "experiment_defaults", "run_experiment"]

Row = Mapping[str, Any]
Claim = Callable[[Sequence[Row]], List[str]]

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def _holds(left: Any, op: str, right: Any, what: str, against: str = "") -> List[str]:
    """``[]`` when ``left <op> right``, else one message naming ``what``."""
    if _OPS[op](left, right):
        return []
    return [f"{what} = {left!r}, claim {op} {against}{right!r}"]


def _every_row(*checks: Tuple[str, str, Any]) -> Claim:
    """The claim that every row passes each ``(key, op, bound)`` check.

    A string ``bound`` names another key of the same row.
    """

    def claim(rows: Sequence[Row]) -> List[str]:
        problems: List[str] = []
        for index, row in enumerate(rows):
            for key, op, bound in checks:
                against = f"{bound} " if isinstance(bound, str) else ""
                right = row[bound] if against else bound
                problems += _holds(row[key], op, right, f"row {index} {key}", against)
        return problems

    return claim


def _claim_e06(rows: Sequence[Row]) -> List[str]:
    first = rows[0]
    bound = first["paper_upper_bound"] + 0.05
    return _holds(first["mean_two_round_ratio"], "<=", bound, "row 0 mean_two_round_ratio")


def _claim_e09(rows: Sequence[Row]) -> List[str]:
    by_name = {row["algorithm"]: row for row in rows}
    problems: List[str] = []
    for combined, restart in (
        ("dynamic-coloring", "restart-coloring"),
        ("dynamic-mis", "restart-mis"),
    ):
        # The combined algorithms must dominate the restart baselines on
        # validity … and churn their output far less.
        for key, op in (("valid_fraction_mean", ">"), ("mean_changes_mean", "<")):
            left, right = by_name[combined][key], by_name[restart][key]
            problems += _holds(left, op, right, f"{combined} {key}", f"{restart} ")
    return problems


def _claim_e10(rows: Sequence[Row]) -> List[str]:
    problems = _holds(len(rows), "==", 3, "row count")
    # Under the oblivious adversary every run completes within the horizon.
    oblivious = next(row for row in rows if "oblivious" in row["setting"])
    return problems + _holds(oblivious["completed_mean"], "==", 1.0, "oblivious completed_mean")


def _claim_e11(rows: Sequence[Row]) -> List[str]:
    coloring = [row for row in rows if row["algorithm"] == "dynamic-coloring"]
    mis = [row for row in rows if row["algorithm"] == "dynamic-mis"]
    problems = _every_row(("valid_fraction_mean", ">=", 0.99))(coloring)
    return problems + _every_row(("valid_fraction_mean", ">=", 0.9))(mis)


def _claim_e13(rows: Sequence[Row]) -> List[str]:
    by_variant = {row["variant"]: row for row in rows}
    # (a) Lemma 4.2's palette invariant never fails for the paper's DColor.
    key = "palette_invariant_violation_fraction_mean"
    problems = _holds(by_variant["dcolor"][key], "==", 0.0, f"dcolor {key}")
    # (b) Removing the un-decide rules destroys the per-round partial-solution property.
    key = "b1_violation_fraction_mean"
    for variant, ablated in (("scolor", "scolor-no-uncolor"), ("smis", "smis-no-undecide")):
        left, right = by_variant[variant][key], by_variant[ablated][key]
        problems += _holds(left, "<", right, f"{variant} {key}", f"{ablated} ")
    # (c) Removing the SAlg backbone destroys stability on a static graph.
    key = "mean_changes_mean"
    problems += _holds(by_variant["dynamic-coloring"][key], "<", 1.0, f"dynamic-coloring {key}")
    no_backbone = by_variant["coloring-no-backbone"][key]
    return problems + _holds(no_backbone, ">", 10.0, f"coloring-no-backbone {key}")


@dataclass(frozen=True)
class ExperimentDef:
    """One catalogued experiment: its id, the function that runs it, and its claim.

    ``claim(rows)`` returns one message per violated guarantee, ``[]`` when
    the rows bear the paper's claim out.
    """

    id: str
    fn: Callable[..., List[Dict[str, float]]]
    claim: Claim

    @property
    def doc(self) -> str:
        """First line of the experiment function's docstring."""
        docstring = inspect.getdoc(self.fn) or ""
        return docstring.splitlines()[0] if docstring else ""

    def check(self, rows: Sequence[Row]) -> List[str]:
        """The claim's messages, each prefixed with the experiment id."""
        return [f"{self.id}: {problem}" for problem in self.claim(rows)]


#: Every experiment the paper's claims are validated by, keyed by stable id.
EXPERIMENTS: Dict[str, ExperimentDef] = {
    definition.id: definition
    for definition in (
        # Shape check: the measured rounds stay within a constant multiple of log2(n).
        ExperimentDef(
            "e01",
            experiment_e01_coloring_convergence,
            _every_row(("rounds_over_log2n", "<=", 4.0)),
        ),
        ExperimentDef(
            "e02",
            experiment_e02_palette_lemma,
            _every_row(("satisfies_bound", "==", 1.0)),
        ),
        ExperimentDef(
            "e03",
            experiment_e03_conflict_resolution,
            _every_row(("max_duration_max", "<=", "window_T1")),
        ),
        ExperimentDef(
            "e04",
            experiment_e04_tdynamic_coloring,
            _every_row(("valid_fraction_mean", ">=", 0.99)),
        ),
        ExperimentDef(
            "e05",
            experiment_e05_local_stability,
            _every_row(
                ("changes_protected_mean", "==", 0.0),
                ("changes_control_mean", ">", 0.0),
            ),
        ),
        ExperimentDef("e06", experiment_e06_mis_edge_decay, _claim_e06),
        ExperimentDef(
            "e07",
            experiment_e07_mis_convergence,
            _every_row(
                ("rounds_over_log2n", "<=", 4.0),
                ("valid_fraction_mean", ">=", 0.9),
            ),
        ),
        ExperimentDef(
            "e08",
            experiment_e08_smis_freeze_decision,
            _every_row(
                ("changes_after_decided_mean", "==", 0.0),
                ("rounds_over_log2n", "<=", 6.0),
            ),
        ),
        ExperimentDef("e09", experiment_e09_baseline_comparison, _claim_e09),
        ExperimentDef("e10", experiment_e10_adversary_sensitivity, _claim_e10),
        ExperimentDef("e11", experiment_e11_async_wakeup, _claim_e11),
        # Single algorithms: O(log n) bits; combined algorithms: O(log^2 n) bits.
        ExperimentDef(
            "e12",
            experiment_e12_message_size,
            _every_row(("bits_over_log2n_sq", "<=", 64.0)),
        ),
        ExperimentDef("e13", experiment_e13_ablations, _claim_e13),
    )
}


def _lookup(experiment_id: str) -> ExperimentDef:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        hint = suggestion_hint(experiment_id, EXPERIMENTS)
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}{hint} "
            f"(available: {', '.join(sorted(EXPERIMENTS))})"
        ) from None


def experiment_defaults(experiment_id: str) -> Dict[str, Any]:
    """The keyword parameters (with defaults) the experiment accepts."""
    signature = inspect.signature(_lookup(experiment_id).fn)
    return {name: parameter.default for name, parameter in signature.parameters.items()}


def run_experiment(
    experiment_id: str, params: Optional[Mapping[str, Any]] = None
) -> List[Dict[str, float]]:
    """Run one catalogued experiment with ``params`` and return its rows.

    The backend is the ambient :func:`repro.exec.use_policy` policy (serial
    outside one).  Unknown parameter names raise :class:`ConfigurationError`
    with near-miss suggestions instead of a bare ``TypeError`` from the call.
    """
    definition = _lookup(experiment_id)
    params = dict(params or {})
    known = experiment_defaults(experiment_id)
    for name in params:
        if name not in known:
            hint = suggestion_hint(name, known)
            raise ConfigurationError(
                f"experiment {experiment_id!r} has no parameter {name!r}{hint} "
                f"(accepted: {', '.join(sorted(known))})"
            )
    # Sequence-valued parameters arrive as JSON lists; the experiment
    # functions accept any sequence, so pass them through unchanged.
    return definition.fn(**params)
