"""MIS experiments E6–E8 (Lemmas 5.2/5.4/5.6, Corollary 1.3).

Expressed through the declarative scenario API (:mod:`repro.scenarios`);
see :mod:`repro.analysis.experiments.coloring` for the conventions.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.scenarios import ScenarioSpec, component, run_scenario, sweep
from repro.analysis.experiments.common import DEFAULT_FAMILY, log2

__all__ = [
    "experiment_e06_mis_edge_decay",
    "experiment_e07_mis_convergence",
    "experiment_e08_smis_freeze_decision",
]

Row = Dict[str, float]


# ---------------------------------------------------------------------------
# E6 — Lemma 5.2: undecided-undecided edges in the intersection graph decay by 1/3 per 2 rounds
# ---------------------------------------------------------------------------

def experiment_e06_mis_edge_decay(
    *,
    n: int = 192,
    seeds: Sequence[int] = (0, 1, 2, 3, 4, 5),
    flip_prob: float = 0.01,
    rounds: int = 30,
) -> List[Row]:
    """E6: measure ``|E(H_{r+2})| / |E(H_r)|`` for DMis under an oblivious churn adversary.

    Paper claim (Lemma 5.2): the expectation of that ratio is at most 2/3.
    ``H_r`` is the subgraph of the running intersection graph induced by the
    still-undecided nodes; the ``mis-edge-decay`` metric reconstructs it from
    the recorded trace and the ratios are pooled over all seeds.
    """
    spec = ScenarioSpec(
        n=n,
        name="mis-edge-decay",
        topology=DEFAULT_FAMILY,
        algorithm="dmis",
        adversary=component("flip-churn", flip_prob=flip_prob),
        rounds=rounds,
        seeds=tuple(seeds),
        metrics=(component("mis-edge-decay"),),
    )
    result = run_scenario(spec)
    ratio_sum = sum(row["ratio_sum"] for row in result.rows)
    ratio_count = sum(row["ratio_count"] for row in result.rows)
    mean_ratio = ratio_sum / ratio_count if ratio_count else float("nan")
    summary: Row = {
        "n": float(n),
        "flip_prob": float(flip_prob),
        "observations": float(ratio_count),
        "mean_two_round_ratio": mean_ratio,
        "paper_upper_bound": 2.0 / 3.0,
        "satisfies_bound": float(mean_ratio <= 2.0 / 3.0 + 0.05) if ratio_count else float("nan"),
        "mean_initial_edges": sum(row["initial_edges"] for row in result.rows) / len(result.rows),
    }
    return [summary]


# ---------------------------------------------------------------------------
# E7 — Lemma 5.4 / Corollary 1.3: DMis convergence and DynamicMIS validity
# ---------------------------------------------------------------------------

def experiment_e07_mis_convergence(
    *,
    sizes: Sequence[int] = (32, 64, 128, 256, 512),
    seeds: Sequence[int] = (0, 1, 2),
    flip_prob: float = 0.01,
    max_round_factor: int = 20,
    validity_rounds_factor: int = 4,
) -> List[Row]:
    """E7: DMis completion rounds vs ``n`` and the T-dynamic validity of DynamicMIS under churn."""
    convergence_spec = ScenarioSpec(
        n=max(sizes),
        name="dmis-convergence",
        topology=DEFAULT_FAMILY,
        algorithm="dmis",
        adversary=component("flip-churn", flip_prob=flip_prob),
        rounds=f"{max_round_factor}*log2n + 10",
        seeds=tuple(seeds),
        stop="all-decided",
        metrics=(component("convergence", on_incomplete="nan"), component("mis-quality")),
    )
    validity_spec = ScenarioSpec(
        n=max(sizes),
        name="dynamic-mis-validity",
        topology=DEFAULT_FAMILY,
        algorithm="dynamic-mis",
        adversary=component("flip-churn", flip_prob=flip_prob),
        rounds=f"{validity_rounds_factor}*T1",
        seeds=tuple(seeds),
        metrics=(component("validity", problem="mis"),),
    )
    convergence_results = sweep(convergence_spec, over={"n": list(sizes)})
    validity_results = sweep(validity_spec, over={"n": list(sizes)})

    rows: List[Row] = []
    for conv, valid in zip(convergence_results, validity_results):
        n = conv.spec.n
        rows.append(
            conv.aggregate(
                mean_keys=("rounds", "mis_size", "greedy_size"),
                max_keys=("rounds",),
                extra={
                    "n": float(n),
                    "log2_n": log2(n),
                    "window_T1": float(valid.spec.resolved_window()),
                },
            )
            | {
                "setting": "dmis-convergence",
                "rounds_over_log2n": conv.mean("rounds") / log2(n),
                "valid_fraction_mean": valid.mean("valid_fraction"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E8 — Lemma 5.6: SMis decides quickly once (a neighbourhood of) the graph freezes
# ---------------------------------------------------------------------------

def experiment_e08_smis_freeze_decision(
    *,
    sizes: Sequence[int] = (64, 128, 256),
    seeds: Sequence[int] = (0, 1, 2),
    churn_rounds: int = 20,
    flip_prob: float = 0.05,
    max_round_factor: int = 25,
) -> List[Row]:
    """E8: run SMis under churn, freeze the graph, measure rounds-to-all-decided after the freeze.

    Paper claim (Lemma 5.6): once a node's 2-neighbourhood is static, the node
    is decided within ``O(log n)`` rounds w.h.p. and never changes afterwards.
    Freezing the whole graph (the ``freeze-after`` adversary wrapping churn)
    makes every 2-neighbourhood static, so the all-decided time after the
    freeze is the relevant measurement; the row also reports output changes
    observed after decision (paper: must be none).
    """
    spec = ScenarioSpec(
        n=max(sizes),
        name="smis-freeze",
        topology=DEFAULT_FAMILY,
        algorithm="smis",
        adversary=component(
            "freeze-after",
            inner={"name": "flip-churn", "params": {"flip_prob": flip_prob}},
            freeze_round=churn_rounds + 1,
        ),
        rounds=f"{churn_rounds} + {max_round_factor}*log2n + 10",
        seeds=tuple(seeds),
        metrics=(component("freeze-decision", churn_rounds=churn_rounds),),
    )
    rows: List[Row] = []
    for result in sweep(spec, over={"n": list(sizes)}):
        n = result.spec.n
        rows.append(
            result.aggregate(
                mean_keys=("rounds_after_freeze", "changes_after_decided"),
                max_keys=("rounds_after_freeze",),
                extra={"n": float(n), "log2_n": log2(n), "churn_rounds": float(churn_rounds)},
            )
            | {"rounds_over_log2n": result.mean("rounds_after_freeze") / log2(n)}
        )
    return rows
