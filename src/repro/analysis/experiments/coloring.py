"""Colouring experiments E1–E4 (Lemmas 4.3/4.4/6.1/6.2, Corollary 1.2).

Each function returns a list of row dicts; see
:mod:`repro.analysis.experiments.catalog` for the mapping from experiment id
to paper claim, and ``results/TABLES.txt`` for recorded outcomes.

All four experiments are expressed through the declarative scenario API
(:mod:`repro.scenarios`): a workload is a :class:`ScenarioSpec` whose
components are registry names, seed replication and grids run through
:func:`run_scenario` / :func:`sweep`, and the rows are aggregated from the
per-seed results.  The rng stream layout matches the pre-scenario harness, so
regenerated numbers are unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.scenarios import ScenarioSpec, component, run_scenario, sweep
from repro.analysis.experiments.common import DEFAULT_FAMILY, log2

__all__ = [
    "experiment_e01_coloring_convergence",
    "experiment_e02_palette_lemma",
    "experiment_e03_conflict_resolution",
    "experiment_e04_tdynamic_coloring",
]

Row = Dict[str, float]


# ---------------------------------------------------------------------------
# E1 — rounds-to-completion of the randomized colouring grows like log n
# ---------------------------------------------------------------------------

def experiment_e01_coloring_convergence(
    *,
    sizes: Sequence[int] = (32, 64, 128, 256, 512),
    seeds: Sequence[int] = (0, 1, 2),
    flip_prob: float = 0.01,
    max_round_factor: int = 20,
    parallel: bool = False,
) -> List[Row]:
    """E1: completion rounds of BasicColoring (static) and DColor (under churn) vs ``n``.

    Paper claim (Lemmas 4.4 / 6.2): all nodes are coloured after ``O(log n)``
    rounds w.h.p.; the measured completion round divided by ``log₂ n`` should
    therefore stay bounded as ``n`` grows.
    """
    static_spec = ScenarioSpec(
        n=max(sizes),
        name="basic-static",
        topology=DEFAULT_FAMILY,
        algorithm="basic-coloring",
        adversary="static",
        rounds=f"{max_round_factor}*log2n + 10",
        seeds=tuple(seeds),
        stop="all-decided",
        metrics=(component("convergence", on_incomplete="nan"),),
    )
    dynamic_spec = static_spec.replace(
        name="dcolor-churn",
        algorithm=component("dcolor"),
        adversary=component("flip-churn", flip_prob=flip_prob),
    )
    static_results = sweep(static_spec, over={"n": list(sizes)}, parallel=parallel)
    dynamic_results = sweep(dynamic_spec, over={"n": list(sizes)}, parallel=parallel)

    rows: List[Row] = []
    for static_res, dynamic_res in zip(static_results, dynamic_results):
        n = static_res.spec.n
        rows.append(
            static_res.aggregate(
                mean_keys=("rounds",),
                max_keys=("rounds",),
                extra={"n": float(n), "log2_n": log2(n), "algorithm": 0.0},
            )
            | {"setting": "basic-static", "rounds_over_log2n": static_res.mean("rounds") / log2(n)}
        )
        rows.append(
            dynamic_res.aggregate(
                mean_keys=("rounds",),
                max_keys=("rounds",),
                extra={"n": float(n), "log2_n": log2(n), "algorithm": 1.0},
            )
            | {"setting": "dcolor-churn", "rounds_over_log2n": dynamic_res.mean("rounds") / log2(n)}
        )
    return rows


# ---------------------------------------------------------------------------
# E2 — Lemma 4.3 / 6.1: colour-or-shrink in every round
# ---------------------------------------------------------------------------

def experiment_e02_palette_lemma(
    *,
    n: int = 192,
    seeds: Sequence[int] = (0, 1, 2, 3),
    rounds: int = 40,
    flip_prob: float = 0.01,
    parallel: bool = False,
) -> List[Row]:
    """E2: per-round, an uncoloured node either gets coloured or its palette shrinks by ≥ 1/4.

    Paper claim (Lemma 4.3 / 6.1): conditioned on the palette *not* shrinking
    by a factor ≥ 1/4 this round, the node is coloured with probability at
    least 1/64.  The scenario attaches the ``palette-shrink`` probe, which
    partitions uncoloured node-rounds accordingly; the rates are pooled over
    all seeds — which must be ≥ 1/64 ≈ 0.0156 (in practice far larger).
    """
    rows: List[Row] = []
    for setting, algorithm, adversary in (
        ("basic-static", "basic-coloring", component("static")),
        ("dcolor-churn", "dcolor", component("flip-churn", flip_prob=flip_prob)),
    ):
        spec = ScenarioSpec(
            n=n,
            name=setting,
            topology=DEFAULT_FAMILY,
            algorithm=algorithm,
            adversary=adversary,
            rounds=rounds,
            seeds=tuple(seeds),
            probe="palette-shrink",
        )
        result = run_scenario(spec, parallel=parallel)
        shrink_events = sum(r["node_rounds_shrink"] for r in result.rows)
        no_shrink_events = sum(r["node_rounds_no_shrink"] for r in result.rows)
        colored_given_no_shrink = sum(r["colored_given_no_shrink"] for r in result.rows)
        rate = colored_given_no_shrink / no_shrink_events if no_shrink_events else float("nan")
        rows.append(
            {
                "setting": setting,
                "n": float(n),
                "node_rounds_no_shrink": float(no_shrink_events),
                "node_rounds_shrink": float(shrink_events),
                "colored_rate_given_no_shrink": rate,
                "paper_lower_bound": 1.0 / 64.0,
                "satisfies_bound": float(rate >= 1.0 / 64.0) if no_shrink_events else float("nan"),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# E3 — Corollary 1.2: conflicts from inserted edges resolve within O(log n) rounds
# ---------------------------------------------------------------------------

def experiment_e03_conflict_resolution(
    *,
    sizes: Sequence[int] = (64, 128, 256),
    seeds: Sequence[int] = (0, 1, 2),
    attacks_per_round: int = 2,
    rounds_factor: int = 6,
    parallel: bool = False,
) -> List[Row]:
    """E3: a targeted adversary keeps inserting monochromatic edges; measure conflict duration.

    Paper claim (Corollary 1.2): after two nodes are joined by an edge they can
    only share a colour for ``T = O(log n)`` rounds.  The row reports the mean
    and maximum observed conflict duration and the window ``T1`` used.
    """
    spec = ScenarioSpec(
        n=max(sizes),
        name="conflict-resolution",
        topology=DEFAULT_FAMILY,
        algorithm="dynamic-coloring",
        adversary=component(
            "targeted-coloring", attacks_per_round=attacks_per_round, lifetime="2*T1"
        ),
        rounds=f"{rounds_factor}*T1",
        seeds=tuple(seeds),
        metrics=(component("conflict-durations", max_wait="2*T1"),),
    )
    rows: List[Row] = []
    for result in sweep(spec, over={"n": list(sizes)}, parallel=parallel):
        n = result.spec.n
        rows.append(
            result.aggregate(
                mean_keys=("attacks", "mean_duration"),
                max_keys=("max_duration",),
                extra={
                    "n": float(n),
                    "window_T1": float(result.spec.resolved_window()),
                    "log2_n": log2(n),
                },
            )
        )
    return rows


# ---------------------------------------------------------------------------
# E4 — sliding-window validity of the combined colouring under a churn sweep
# ---------------------------------------------------------------------------

def experiment_e04_tdynamic_coloring(
    *,
    n: int = 128,
    flip_probs: Sequence[float] = (0.001, 0.01, 0.05, 0.1),
    seeds: Sequence[int] = (0, 1, 2),
    rounds_factor: int = 5,
    window: Optional[int] = None,
    parallel: bool = False,
) -> List[Row]:
    """E4: fraction of rounds whose output is a valid T-dynamic colouring, per churn rate.

    Paper claim (Theorem 1.1(1) + Corollary 1.2): *every* round's output is a
    T-dynamic solution w.h.p., independent of the churn rate; the colours stay
    within the union-graph degree + 1 bound.
    """
    spec = ScenarioSpec(
        n=n,
        name="tdynamic-coloring",
        topology=DEFAULT_FAMILY,
        algorithm="dynamic-coloring",
        adversary=component("flip-churn", flip_prob=0.0),
        rounds=f"{rounds_factor}*T1",
        seeds=tuple(seeds),
        window=window,
        metrics=(
            component("validity", problem="coloring"),
            component("coloring-quality", graph="union"),
        ),
    )
    rows: List[Row] = []
    for result in sweep(
        spec, over={"adversary.params.flip_prob": list(flip_probs)}, parallel=parallel
    ):
        flip_prob = result.overrides["adversary.params.flip_prob"]
        rows.append(
            result.aggregate(
                mean_keys=("valid_fraction", "mean_violations", "max_color", "colors_used"),
                extra={
                    "n": float(n),
                    "flip_prob": float(flip_prob),
                    "window_T1": float(result.spec.resolved_window()),
                },
            )
        )
    return rows
