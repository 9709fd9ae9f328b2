"""Framework-level experiments E5 and E9–E13.

These probe the properties of the ``Concat`` combiner itself (stability,
baseline comparison, adversary sensitivity, asynchronous wake-up, message
sizes) and the ablations of the design choices the paper argues for.

Expressed through the declarative scenario API (:mod:`repro.scenarios`);
see :mod:`repro.analysis.experiments.coloring` for the conventions.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.scenarios import ScenarioSpec, component, run_scenario
from repro.analysis.experiments.common import DEFAULT_FAMILY, log2

__all__ = [
    "experiment_e05_local_stability",
    "experiment_e09_baseline_comparison",
    "experiment_e10_adversary_sensitivity",
    "experiment_e11_async_wakeup",
    "experiment_e12_message_size",
    "experiment_e13_ablations",
]

Row = Dict[str, float]


# ---------------------------------------------------------------------------
# E5 — Theorem 1.1(2): locally static graph ⇒ locally static output
# ---------------------------------------------------------------------------

def experiment_e05_local_stability(
    *,
    n: int = 121,
    seeds: Sequence[int] = (0, 1, 2),
    flip_prob: float = 0.05,
    protected_radius: int = 3,
    rounds_factor: int = 6,
    family: str = "grid",
) -> List[Row]:
    """E5: freeze a ball around a centre node, churn everything else, measure output changes.

    Paper claim (Theorem 1.1(2) with the Corollary 1.2/1.3 parameters): nodes
    whose 2-neighbourhood is static during ``[r, r2]`` keep a fixed output
    during ``[r + 2·T1, r2]``.  The row reports the number of output changes
    after the grace period inside the protected ball (expected: 0) and, as a
    control, outside it (expected: > 0 under churn).
    """
    rows: List[Row] = []
    for label in ("dynamic-coloring", "dynamic-mis"):
        spec = ScenarioSpec(
            n=n,
            name=label,
            topology=family,
            algorithm=label,
            adversary=component(
                "locally-static", flip_prob=flip_prob, protected_radius=protected_radius
            ),
            rounds=f"{rounds_factor}*T1",
            seeds=tuple(seeds),
            metrics=(component("region-stability", grace="2*T1+2"),),
        )
        result = run_scenario(spec)
        T1 = spec.resolved_window()
        rows.append(
            result.aggregate(
                mean_keys=("protected_nodes", "changes_protected", "changes_control"),
                max_keys=("changes_protected",),
                extra={"n": float(n), "window_T1": float(T1), "grace": float(2 * T1 + 2)},
            )
            | {"algorithm": label}
        )
    return rows


# ---------------------------------------------------------------------------
# E9 — framework vs recovery-style baselines under continuous churn
# ---------------------------------------------------------------------------

def experiment_e09_baseline_comparison(
    *,
    n: int = 128,
    seeds: Sequence[int] = (0, 1, 2),
    flip_prob: float = 0.02,
    rounds_factor: int = 6,
) -> List[Row]:
    """E9: T-dynamic validity and output churn of the framework vs restart / repair baselines.

    Paper motivation (Section 1): recovery-based schemes lose their guarantees
    under continuous churn.  Expected shape: the combined algorithms keep
    ``valid_fraction ≈ 1`` with low output churn; the restart baselines lose
    validity around every restart and churn heavily; the pure repair baselines
    (SColor / SMis alone) sit in between (few conflicts but many ⊥ outputs /
    changes).
    """
    configurations: Sequence[tuple[str, str, str]] = (
        ("dynamic-coloring", "coloring", "dynamic-coloring"),
        ("scolor-only", "coloring", "scolor"),
        ("restart-coloring", "coloring", "restart-coloring"),
        ("dynamic-mis", "mis", "dynamic-mis"),
        ("smis-only", "mis", "smis"),
        ("restart-mis", "mis", "restart-mis"),
    )
    rows: List[Row] = []
    for label, problem, algorithm in configurations:
        spec = ScenarioSpec(
            n=n,
            name=label,
            topology=DEFAULT_FAMILY,
            algorithm=algorithm,
            adversary=component("flip-churn", flip_prob=flip_prob),
            rounds=f"{rounds_factor}*T1",
            seeds=tuple(seeds),
            metrics=(
                component("validity", problem=problem, start_round="T1"),
                component("stability", warmup="T1"),
            ),
        )
        result = run_scenario(spec)
        rows.append(
            result.aggregate(
                mean_keys=("valid_fraction", "mean_violations", "mean_changes", "change_rate"),
                extra={
                    "n": float(n),
                    "window_T1": float(spec.resolved_window()),
                    "flip_prob": float(flip_prob),
                },
            )
            | {"algorithm": label}
        )
    return rows


# ---------------------------------------------------------------------------
# E10 — adversary sensitivity (2-oblivious vs adaptive)
# ---------------------------------------------------------------------------

def experiment_e10_adversary_sensitivity(
    *,
    n: int = 128,
    seeds: Sequence[int] = (0, 1, 2),
    attacks_per_round: int = 4,
    max_round_factor: int = 30,
) -> List[Row]:
    """E10: DMis convergence under an oblivious churn adversary vs adaptive attackers.

    Paper remarks (after Lemma 5.2 and Section 4.3): the DMis analysis needs a
    2-oblivious adversary, while the colouring algorithms tolerate an adaptive
    offline adversary.  The experiment measures DMis's completion time under
    (a) oblivious churn, (b) an adaptive adversary that cuts the edges over
    which fresh MIS nodes would notify their neighbours, and (c) an adaptive
    adversary that joins MIS nodes (attacking the combined DynamicMIS's
    stability).  Colouring under its targeted adversary is covered by E3.
    """
    rows: List[Row] = []
    for label, adversary in (
        ("oblivious-churn", component("flip-churn", flip_prob=0.01)),
        (
            "adaptive-cut-notification",
            component(
                "targeted-mis",
                mode="cut_notification",
                attacks_per_round=attacks_per_round,
                lifetime=2,
            ),
        ),
    ):
        spec = ScenarioSpec(
            n=n,
            name=f"dmis/{label}",
            topology=DEFAULT_FAMILY,
            algorithm="dmis",
            adversary=adversary,
            rounds=f"{max_round_factor}*log2n + 10",
            seeds=tuple(seeds),
            stop="all-decided",
            metrics=(component("convergence", on_incomplete="rounds"),),
        )
        result = run_scenario(spec)
        rows.append(
            result.aggregate(
                mean_keys=("rounds", "completed"),
                max_keys=("rounds",),
                extra={"n": float(n), "log2_n": log2(n)},
            )
            | {"setting": f"dmis/{label}"}
        )

    # (c) adaptive join-MIS attack against the combined algorithm's stability.
    join_spec = ScenarioSpec(
        n=n,
        name="dynamic-mis/adaptive-join-mis",
        topology=DEFAULT_FAMILY,
        algorithm="dynamic-mis",
        adversary=component(
            "targeted-mis", mode="join_mis", attacks_per_round=attacks_per_round, lifetime="T1"
        ),
        rounds="4*T1",
        seeds=tuple(seeds),
        metrics=(
            component("validity", problem="mis", start_round="T1"),
            component("stability", warmup="T1"),
        ),
    )
    join = run_scenario(join_spec)
    agg = join.aggregate(
        mean_keys=("valid_fraction", "mean_changes"),
        extra={"n": float(n), "log2_n": log2(n)},
    )
    agg["completed_mean"] = agg.pop("valid_fraction_mean")
    rows.append(
        agg | {"setting": "dynamic-mis/adaptive-join-mis (valid_fraction in 'completed_mean')"}
    )
    return rows


# ---------------------------------------------------------------------------
# E11 — asynchronous wake-up
# ---------------------------------------------------------------------------

def experiment_e11_async_wakeup(
    *,
    n: int = 128,
    seeds: Sequence[int] = (0, 1, 2),
    flip_prob: float = 0.01,
    rounds_factor: int = 8,
) -> List[Row]:
    """E11: the combined algorithms keep their guarantees under gradual wake-up schedules.

    Paper claim (Sections 2 / 7.2): all algorithms have a single round type and
    therefore work with asynchronous wake-up; constrained nodes are only those
    awake for a full window.
    """
    schedules = (
        ("all-at-once", None),
        ("staggered", component("staggered", interval=1)),
        ("uniform-random", component("uniform-random", spread="2*T1")),
    )
    rows: List[Row] = []
    for label, wakeup in schedules:
        for alg_label, problem in (("dynamic-coloring", "coloring"), ("dynamic-mis", "mis")):
            spec = ScenarioSpec(
                n=n,
                name=f"{label}/{alg_label}",
                topology=DEFAULT_FAMILY,
                algorithm=alg_label,
                adversary=component("flip-churn", flip_prob=flip_prob),
                wakeup=wakeup,
                rounds=f"{rounds_factor}*T1",
                seeds=tuple(seeds),
                metrics=(component("validity", problem=problem),),
            )
            result = run_scenario(spec)
            rows.append(
                result.aggregate(
                    mean_keys=("valid_fraction", "mean_violations"),
                    extra={"n": float(n), "window_T1": float(spec.resolved_window())},
                )
                | {"schedule": label, "algorithm": alg_label}
            )
    return rows


# ---------------------------------------------------------------------------
# E12 — message sizes stay polylogarithmic
# ---------------------------------------------------------------------------

def experiment_e12_message_size(
    *,
    sizes: Sequence[int] = (32, 128, 512),
    seed: int = 0,
    flip_prob: float = 0.01,
    rounds_factor: int = 3,
) -> List[Row]:
    """E12: maximum estimated message size (bits) per algorithm vs ``n``.

    Paper claim (Section 2): all presented algorithms work with ``poly log n``
    bits per message.  Single algorithms send O(log n)-bit messages (a colour,
    a random number, a mark); the ``Concat`` combiner bundles ``T1 = Θ(log n)``
    sub-messages, i.e. Θ(log² n) bits — both polylogarithmic.
    """
    rows: List[Row] = []
    for n in sizes:
        for label in ("scolor", "dcolor", "smis", "dmis", "dynamic-coloring", "dynamic-mis"):
            spec = ScenarioSpec(
                n=n,
                name=label,
                topology=DEFAULT_FAMILY,
                algorithm=label,
                adversary=component("flip-churn", flip_prob=flip_prob),
                rounds=f"{rounds_factor}*T1",
                seeds=(seed,),
                metrics=(component("message-size"),),
            )
            result = run_scenario(spec)
            max_bits = result.rows[0]["max_message_bits"]
            rows.append(
                {
                    "algorithm": label,
                    "n": float(n),
                    "window_T1": float(spec.resolved_window()),
                    "max_message_bits": float(max_bits),
                    "log2_n": log2(n),
                    "bits_over_log2n_sq": float(max_bits) / (log2(n) ** 2),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# E13 — ablations of the paper's design choices
# ---------------------------------------------------------------------------

def experiment_e13_ablations(
    *,
    n: int = 96,
    seeds: Sequence[int] = (0, 1, 2),
    rounds_factor: int = 5,
    insertions_per_round: int = 3,
) -> List[Row]:
    """E13: remove one design choice at a time and measure what breaks.

    (a) DColor on the current graph vs the intersection graph, under an
        edge-insertion workload: the ``palette-invariant`` probe checks the
        Lemma 4.2 invariant ``|P_v| >= |U(v)| + 1`` every round (the paper's
        choice never violates it, the ablation does).
    (b) SColor / SMis without the un-decide rules: number of rounds whose
        output violates the partial-solution property B.1 under churn.
    (c) Concat without the SAlg backbone on a *static* graph: mean output
        changes per round after warm-up (the paper's combiner: ~0; the naive
        restart-every-round scheme: large).
    """
    rows: List[Row] = []

    # (a) intersection-graph restriction (palette invariant).
    for label, algorithm, restricted in (
        ("dcolor", "dcolor", True),
        ("dcolor-current-graph", "dcolor-current-graph", False),
    ):
        spec = ScenarioSpec(
            n=n,
            name=label,
            topology=DEFAULT_FAMILY,
            algorithm=algorithm,
            adversary=component(
                "edge-insertion", insertions_per_round=insertions_per_round, lifetime=3
            ),
            rounds=f"{rounds_factor}*T1",
            seeds=tuple(seeds),
            probe=component("palette-invariant", restricted=restricted),
        )
        result = run_scenario(spec)
        rows.append(
            result.aggregate(
                mean_keys=("palette_invariant_violation_fraction", "uncolored_fraction"),
                extra={"n": float(n)},
            )
            | {"ablation": "a:intersection-graph", "variant": label}
        )

    # (b) un-decide rules.
    for label, problem, algorithm in (
        ("scolor", "coloring", "scolor"),
        ("scolor-no-uncolor", "coloring", "scolor-no-uncolor"),
        ("smis", "mis", "smis"),
        ("smis-no-undecide", "mis", "smis-no-undecide"),
    ):
        spec = ScenarioSpec(
            n=n,
            name=label,
            topology=DEFAULT_FAMILY,
            algorithm=algorithm,
            adversary=component("flip-churn", flip_prob=0.05),
            rounds=f"{rounds_factor}*T1",
            seeds=tuple(seeds),
            metrics=(component("b1-violations", problem=problem, start_round="T1"),),
        )
        result = run_scenario(spec)
        rows.append(
            result.aggregate(mean_keys=("b1_violation_fraction",), extra={"n": float(n)})
            | {"ablation": "b:un-decide-rule", "variant": label}
        )

    # (c) SAlg backbone.
    for label, algorithm in (
        ("dynamic-coloring", "dynamic-coloring"),
        ("coloring-no-backbone", "coloring-no-backbone"),
    ):
        spec = ScenarioSpec(
            n=n,
            name=label,
            topology=DEFAULT_FAMILY,
            algorithm=algorithm,
            adversary="static",
            rounds=f"{rounds_factor}*T1",
            seeds=tuple(seeds),
            metrics=(component("stability", warmup="2*T1"),),
        )
        result = run_scenario(spec)
        rows.append(
            result.aggregate(mean_keys=("mean_changes", "change_rate"), extra={"n": float(n)})
            | {"ablation": "c:backbone", "variant": label}
        )
    return rows
