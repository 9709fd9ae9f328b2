"""Built-in component registrations.

Importing this module (done by ``repro.scenarios.__init__``) populates the
registries of :mod:`repro.scenarios.registry` with every topology family,
adversary, algorithm, wake-up schedule, metric, probe and stop condition the
library ships — the full combination space of ``dynamics/`` × ``algorithms/``
becomes addressable by name.

Factory conventions (``ctx`` is the per-seed
:class:`~repro.scenarios.executor.ScenarioContext`):

* topologies: ``(n, rng, **params) -> Topology``;
* adversaries / algorithms / wake-ups: ``(ctx, **params)``; the context
  provides the base topology, derived rng streams, the window ``T1`` and the
  wake-up schedule;
* metrics: ``(ctx, **params) -> Dict[str, float]`` run after the simulation
  (``ctx.trace`` / ``ctx.adversary`` / ``ctx.algorithm`` are available);
* probes: ``(ctx, **params) -> object`` with ``observe(sim) -> bool`` called
  after every round (truthy return stops the run) and
  ``finish() -> Dict[str, float]``;
* stop conditions: ``(ctx, **params) -> Callable[[ExecutionTrace], bool]``.

The rng stream names deliberately mirror the ones the pre-scenario experiment
code used (``("adversary", "churn")``, ``("adversary", "targeted")``, …) so
migrating an experiment onto the declarative API reproduces its historical
numbers bit for bit.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.dynamics import generators
from repro.dynamics.adversaries.composite import FreezeAfterAdversary
from repro.dynamics.adversaries.locally_static import LocallyStaticAdversary
from repro.dynamics.adversaries.random_churn import ChurnAdversary, MobilityAdversary
from repro.dynamics.adversaries.scripted import StaticAdversary
from repro.dynamics.adversaries.targeted_coloring import TargetedColoringAdversary
from repro.dynamics.adversaries.targeted_mis import TargetedMisAdversary, check_mode
from repro.dynamics.churn import (
    BurstChurn,
    EdgeInsertionChurn,
    FlipChurn,
    MarkovEdgeChurn,
    StaticChurn,
)
from repro.dynamics.dynamic_graph import WindowWalk
from repro.dynamics.mobility import RandomWaypointMobility
from repro.dynamics.wakeup import (
    AllAwake,
    StaggeredWakeup,
    UniformRandomWakeup,
)
from repro.algorithms.coloring.ablations import (
    DColorCurrentGraphAblation,
    SColorNoUncolorAblation,
    concat_without_backbone,
)
from repro.algorithms.coloring.baselines import RestartColoring
from repro.algorithms.coloring.basic_static import BasicColoring
from repro.algorithms.coloring.dcolor import DColor
from repro.algorithms.coloring.dynamic_coloring import DynamicColoring
from repro.algorithms.coloring.scolor import SColor
from repro.algorithms.mis.ablations import SMisNoUndecideAblation
from repro.algorithms.mis.baselines import RestartMis
from repro.algorithms.mis.dmis import DMis
from repro.algorithms.mis.dynamic_mis import DynamicMIS
from repro.algorithms.mis.ghaffari import GhaffariMIS
from repro.algorithms.mis.smis import SMis
from repro.analysis.conflicts import conflict_resolution_times
from repro.analysis.convergence import (
    DecisionWalk,
    completion_round_for_nodes,
    rounds_to_completion,
)
from repro.analysis.quality import coloring_quality, mis_quality
from repro.analysis.stability import region_change_count, stability_summary
from repro.core.properties import verify_partial_solution_every_round
from repro.problems.coloring import coloring_problem_pair
from repro.problems.dynamic_problem import TDynamicSpec
from repro.problems.mis import mis_problem_pair
from repro.types import Interval
from repro.utils.validation import (
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
)
from repro.scenarios.spec import resolve_expression
from repro.scenarios.registry import (
    ADVERSARIES,
    ALGORITHMS,
    METRICS,
    PROBES,
    STOP_CONDITIONS,
    TOPOLOGIES,
    WAKEUPS,
    suggestion_hint,
)
__all__ = ["problem_pair_by_name"]


def _resolve(ctx, value, **extra):
    """Evaluate a duration parameter against the scenario's variables."""
    return ctx.resolve(value, **extra)


def _value_checks(**rules: Callable[[str, Any], Any]) -> Callable[..., List[str]]:
    """A registry ``check`` that runs each constructor's rule on the parameter it names.

    ``rules`` maps a parameter to the :mod:`repro.utils.validation` rule its
    constructor calls, so ``repro validate`` rejects exactly what a run would;
    an absent parameter keeps its (valid) default.
    """

    def check(params: Mapping[str, Any], where: str) -> List[str]:
        problems = []
        for key, rule in rules.items():
            if key in params:
                try:
                    rule(key, params[key])
                except ConfigurationError as exc:
                    problems.append(f"{where}.{key}: {exc}")
        return problems

    return check


def _literal_duration(name: str, value: Any) -> None:
    """A literal duration must be integral; ``None`` keeps the default and an
    expression such as ``"2*T1"`` resolves at run time."""
    if value is not None and not isinstance(value, str):
        resolve_expression(value)


def _durations(*keys: str) -> Callable[..., List[str]]:
    """A registry ``check`` for parameters the factory resolves as durations."""
    return _value_checks(**dict.fromkeys(keys, _literal_duration))


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------


@TOPOLOGIES.register("gnp_degree")
def _topology_gnp_degree(n, rng, *, degree: float = 8.0):
    """Erdős–Rényi G(n, p) parameterised by expected degree."""
    if isinstance(degree, bool) or not isinstance(degree, numbers.Real) or not degree >= 0:
        raise ConfigurationError(f"degree must be a real number >= 0, got {degree!r}")
    return generators.gnp(n, min(1.0, degree / max(n - 1, 1)), rng)


@TOPOLOGIES.register("gnp_sparse")
def _topology_gnp_sparse(n, rng):
    """Erdős–Rényi G(n, p) with expected degree 8 (`gnp_degree` at its default)."""
    return _topology_gnp_degree(n, rng)


@TOPOLOGIES.register("ring")
def _topology_ring(n, rng):
    """Cycle C_n."""
    return generators.ring(n)


@TOPOLOGIES.register("grid")
def _topology_grid(n, rng):
    """Largest square grid with at most ``n`` nodes, padded with isolated nodes to ``n``."""
    side = max(1, math.isqrt(n))
    return generators.grid(side, side).with_nodes(range(side * side, n))


@TOPOLOGIES.register("random_geometric")
def _topology_geometric(n, rng, *, radius: Optional[float] = None):
    """Random geometric graph on the unit square (default radius targets ~10 expected neighbours)."""
    if radius is None:
        radius = math.sqrt(10.0 / max(n, 1) / math.pi)
    return generators.random_geometric(n, radius, rng)


@TOPOLOGIES.register("barabasi_albert", check=_value_checks(m=check_positive_int))
def _topology_ba(n, rng, *, m: int = 3):
    """Barabási–Albert preferential-attachment graph (clique when n <= m)."""
    if n <= check_positive_int("m", m):
        return generators.clique(n)
    return generators.barabasi_albert(n, m, rng)


# ---------------------------------------------------------------------------
# wake-up schedules
# ---------------------------------------------------------------------------


@WAKEUPS.register("all-at-once")
def _wakeup_all(ctx):
    """Every node is awake from round 1."""
    return AllAwake(ctx.n)


@WAKEUPS.register(
    "staggered", check=_value_checks(batch_size=_literal_duration, interval=check_positive_int)
)
def _wakeup_staggered(ctx, *, batch_size=None, interval: int = 1):
    """Contiguous batches of nodes wake every `interval` rounds."""
    if batch_size is None:
        batch_size = max(1, ctx.n // (2 * ctx.T1))
    return StaggeredWakeup(ctx.n, batch_size=int(_resolve(ctx, batch_size)), interval=interval)


@WAKEUPS.register("uniform-random", check=_durations("spread"))
def _wakeup_uniform(ctx, *, spread="2*T1"):
    """Each node wakes at an independent uniform round in [1, spread]."""
    return UniformRandomWakeup(ctx.n, spread=_resolve(ctx, spread), rng=ctx.stream("wakeup"))


# ---------------------------------------------------------------------------
# adversaries
# ---------------------------------------------------------------------------


@ADVERSARIES.register("static")
def _adversary_static(ctx):
    """The base topology, unchanged every round (optionally gated by the wake-up schedule)."""
    return StaticAdversary(ctx.base, wakeup=ctx.wakeup)


def _literal_lifetime(name: str, value: Any) -> None:
    """A literal ``lifetime`` must be an integer >= 1; ``"2*T1"`` resolves at run time."""
    if not isinstance(value, str):
        check_positive_int(name, value)


_flip_problems = _value_checks(flip_prob=check_probability)
_markov_problems = _value_checks(p_off=check_probability, p_on=check_probability)
_burst_problems = _value_checks(burst_prob=check_probability, drop_fraction=check_probability)
_insertion_problems = _value_checks(
    insertions_per_round=check_non_negative_int, lifetime=_literal_lifetime
)
_targeted_rules = {"attacks_per_round": check_non_negative_int, "lifetime": _literal_lifetime}


def _literal_center(name: str, value: Any) -> None:
    """``center`` is a node id; ``None`` picks the highest-degree node."""
    if value is not None:
        check_non_negative_int(name, value)


@ADVERSARIES.register("flip-churn", check=_flip_problems)
def _adversary_flip(ctx, *, flip_prob: float = 0.01):
    """Every base edge flips its presence with probability `flip_prob` per round."""
    flip_prob = check_probability("flip_prob", flip_prob)
    churn = FlipChurn(ctx.base, flip_prob) if flip_prob > 0 else StaticChurn(ctx.base)
    return ChurnAdversary(ctx.n, churn, ctx.stream("adversary", "churn"), wakeup=ctx.wakeup)


@ADVERSARIES.register("markov-churn", check=_markov_problems)
def _adversary_markov(ctx, *, p_off: float = 0.0, p_on: float = 0.0):
    """Per-edge two-state Markov churn with `p_off` / `p_on` transition probabilities."""
    churn = MarkovEdgeChurn(ctx.base, p_off=p_off, p_on=p_on)
    return ChurnAdversary(ctx.n, churn, ctx.stream("adversary", "churn"), wakeup=ctx.wakeup)


@ADVERSARIES.register("burst-churn", check=_burst_problems)
def _adversary_burst(ctx, *, burst_prob: float = 0.1, drop_fraction: float = 0.5):
    """Occasional single-round bursts deleting a random fraction of the edges."""
    churn = BurstChurn(ctx.base, burst_prob, drop_fraction)
    return ChurnAdversary(ctx.n, churn, ctx.stream("adversary", "burst"), wakeup=ctx.wakeup)


@ADVERSARIES.register("edge-insertion", check=_insertion_problems)
def _adversary_insertion(ctx, *, insertions_per_round: int = 3, lifetime: int = 3):
    """Random short-lived extra edges on top of the stable base graph."""
    churn = EdgeInsertionChurn(
        ctx.base, insertions_per_round=insertions_per_round, lifetime=_resolve(ctx, lifetime)
    )
    return ChurnAdversary(ctx.n, churn, ctx.stream("adversary", "insert"), wakeup=ctx.wakeup)


@ADVERSARIES.register("targeted-coloring", check=_value_checks(**_targeted_rules))
def _adversary_targeted_coloring(ctx, *, attacks_per_round: int = 2, lifetime="2*T1"):
    """Adaptive attacker inserting monochromatic conflict edges against the latest visible colouring."""
    return TargetedColoringAdversary(
        ctx.base,
        attacks_per_round=attacks_per_round,
        lifetime=_resolve(ctx, lifetime),
        rng=ctx.stream("adversary", "targeted"),
    )


@ADVERSARIES.register("targeted-mis", check=_value_checks(**_targeted_rules, mode=check_mode))
def _adversary_targeted_mis(
    ctx, *, mode: str = "cut_notification", attacks_per_round: int = 4, lifetime=2
):
    """Adaptive attacker cutting MIS notifications or joining MIS nodes."""
    stream_label = {"cut_notification": "cut", "join_mis": "join"}.get(mode, mode)
    return TargetedMisAdversary(
        ctx.base,
        mode=mode,
        attacks_per_round=attacks_per_round,
        rng=ctx.stream("adversary", stream_label),
        lifetime=_resolve(ctx, lifetime),
    )


@ADVERSARIES.register(
    "locally-static",
    check=_value_checks(
        flip_prob=check_probability,
        protected_radius=check_non_negative_int,
        center=_literal_center,
    ),
)
def _adversary_locally_static(
    ctx, *, flip_prob: float = 0.05, protected_radius: int = 3, center=None
):
    """Churns everything outside a protected ball whose incident edges stay frozen."""
    if center is None:
        center = max(ctx.base.nodes, key=lambda v: ctx.base.degree(v))
    return LocallyStaticAdversary(
        ctx.base,
        center=center,
        protected_radius=protected_radius,
        churn=FlipChurn(ctx.base, flip_prob),
        rng=ctx.stream("adversary", "locally-static"),
    )


def _adversary_ref_problems(ref: Any, where: str) -> List[str]:
    """Problems with a nested adversary reference (name or ``{"name", "params"}``)."""
    from repro.scenarios.spec import ComponentSpec

    try:
        spec = ComponentSpec.coerce(ref)
    except ConfigurationError as exc:
        return [f"{where}: {exc}"]
    if spec.name not in ADVERSARIES:
        hint = suggestion_hint(spec.name, ADVERSARIES.available())
        return [f"{where}.name: unknown adversary {spec.name!r}{hint}"]
    return ADVERSARIES.param_problems(spec.name, spec.params, f"{where}.params")


def _freeze_after_problems(params: Mapping[str, Any], where: str) -> List[str]:
    problems = _adversary_ref_problems(params["inner"], f"{where}.inner")
    return problems + _durations("freeze_round")(params, where)


@ADVERSARIES.register("freeze-after", check=_freeze_after_problems)
def _adversary_freeze_after(ctx, *, inner, freeze_round):
    """Runs `inner` until `freeze_round`, then repeats the last graph forever."""
    from repro.scenarios.spec import ComponentSpec

    inner_spec = ComponentSpec.coerce(inner)
    inner_adversary = ADVERSARIES.get(inner_spec.name)(ctx, **inner_spec.params)
    return FreezeAfterAdversary(inner_adversary, freeze_round=_resolve(ctx, freeze_round))


@ADVERSARIES.register(
    "mobility",
    check=_value_checks(
        radius=check_positive, speed=check_positive, pause_probability=check_probability
    ),
)
def _adversary_mobility(
    ctx, *, radius: float = 0.18, speed: float = 0.02, pause_probability: float = 0.0
):
    """Random-waypoint mobility: the geometric graph of nodes moving in the unit square."""
    mobility = RandomWaypointMobility(
        ctx.n,
        radius=radius,
        speed=speed,
        pause_probability=pause_probability,
        rng=ctx.stream("mobility"),
    )
    return MobilityAdversary(mobility, wakeup=ctx.wakeup)


# ---------------------------------------------------------------------------
# algorithms
# ---------------------------------------------------------------------------


def _register_plain_algorithm(name: str, cls):
    doc = (cls.__doc__ or "").strip().splitlines()

    def build(ctx):
        return cls()

    ALGORITHMS.register(name, build, doc=doc[0] if doc else "")


for _name, _cls in (
    ("basic-coloring", BasicColoring),
    ("scolor", SColor),
    ("dcolor", DColor),
    ("dcolor-current-graph", DColorCurrentGraphAblation),
    ("scolor-no-uncolor", SColorNoUncolorAblation),
    ("smis", SMis),
    ("smis-no-undecide", SMisNoUndecideAblation),
    ("ghaffari-mis", GhaffariMIS),
):
    _register_plain_algorithm(_name, _cls)


@ALGORITHMS.register("dmis")
def _algorithm_dmis(ctx, *, revalidate_dominated: bool = False):
    """DMis: dynamic MIS via desire levels over the T1-window backbone."""
    return DMis(revalidate_dominated=revalidate_dominated)


@ALGORITHMS.register("dynamic-coloring", check=_durations("window"))
def _algorithm_dynamic_coloring(ctx, *, window=None):
    """Concat(SColor, DColor): the paper's dynamic (deg+1)-colouring."""
    return DynamicColoring(ctx.T1 if window is None else _resolve(ctx, window))


@ALGORITHMS.register("dynamic-mis", check=_durations("window"))
def _algorithm_dynamic_mis(ctx, *, window=None, revalidate_dominated: bool = False):
    """Concat(SMis, DMis): the paper's dynamic MIS."""
    T1 = ctx.T1 if window is None else _resolve(ctx, window)
    return DynamicMIS(T1, revalidate_dominated=revalidate_dominated)


@ALGORITHMS.register("restart-coloring", check=_durations("period"))
def _algorithm_restart_coloring(ctx, *, period=None):
    """Baseline: restart a static colouring every `period` rounds."""
    return RestartColoring(ctx.T1 if period is None else _resolve(ctx, period))


@ALGORITHMS.register("restart-mis", check=_durations("period"))
def _algorithm_restart_mis(ctx, *, period=None):
    """Baseline: restart a static MIS every `period` rounds."""
    return RestartMis(ctx.T1 if period is None else _resolve(ctx, period))


@ALGORITHMS.register("coloring-no-backbone", check=_durations("window"))
def _algorithm_coloring_no_backbone(ctx, *, window=None):
    """Ablation: Concat colouring without the intersection-graph backbone."""
    return concat_without_backbone(ctx.T1 if window is None else _resolve(ctx, window))


# Surface each algorithm's audited message-stability contract in
# ``available(docs=True)`` / `repro components`, so the delivery path an
# algorithm gets is discoverable without reading its source.  Each
# registered build runs once on a stub context (``T1 = 2``): the built
# instance gives the contract, and ``[kernel: array]`` marks the builds whose
# ``as_kernel()`` returns a factory (an ablation that inherits a kernel is
# tagged exactly when the kernel accepts it).
_DOC_CONTEXT = SimpleNamespace(T1=2)
for _algo_name in ALGORITHMS:
    _algo = ALGORITHMS.get(_algo_name)(_DOC_CONTEXT)
    _kernel_tag = " [kernel: array]" if _algo.as_kernel() is not None else ""
    ALGORITHMS.set_doc(
        _algo_name,
        f"{ALGORITHMS.doc(_algo_name)} [delivery: {_algo.message_stability}]{_kernel_tag}",
    )


# ---------------------------------------------------------------------------
# stop conditions
# ---------------------------------------------------------------------------


@STOP_CONDITIONS.register("all-decided")
def _stop_all_decided(ctx):
    """Stop as soon as every awake node has produced an output.

    The predicate runs after every round, so it checks the latest round
    only, from one walk over the trace's output updates.
    """
    walk = None

    def stop(trace):
        nonlocal walk
        walk = walk or DecisionWalk(trace)
        while walk.round < trace.num_rounds:
            walk.advance()
        return bool(walk.outputs) and walk.all_decided

    return stop


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

_PROBLEM_PAIRS = {
    "coloring": coloring_problem_pair,
    "mis": mis_problem_pair,
}


def problem_pair_by_name(problem: str):
    """The :class:`~repro.problems.packing_covering.ProblemPair` for a problem name."""
    try:
        return _PROBLEM_PAIRS[problem]()
    except KeyError:
        raise ConfigurationError(
            f"unknown problem {problem!r}; available: {sorted(_PROBLEM_PAIRS)}"
        ) from None


@METRICS.register("validity", check=_durations("start_round", "window"))
def _metric_validity(ctx, *, problem: str, start_round=1, window=None):
    """Sliding-window T-dynamic validity summary (Theorem 1.1(1))."""
    T = ctx.T1 if window is None else _resolve(ctx, window)
    spec = TDynamicSpec(problem_pair_by_name(problem), T)
    return spec.validity_summary(ctx.trace, start_round=_resolve(ctx, start_round))


@METRICS.register("stability", check=_durations("warmup"))
def _metric_stability(ctx, *, warmup=0):
    """Output-change statistics after a warm-up prefix."""
    return stability_summary(ctx.trace, warmup=_resolve(ctx, warmup))


@METRICS.register("convergence")
def _metric_convergence(ctx, *, on_incomplete: str = "nan"):
    """Rounds until every awake node is decided (``stop="all-decided"`` runs).

    ``on_incomplete`` selects the ``rounds`` value when the run never
    completed: ``"nan"`` or ``"rounds"`` (the simulated horizon).
    """
    done = rounds_to_completion(ctx.trace)
    if done is not None:
        rounds = float(done)
    elif on_incomplete == "rounds":
        rounds = float(ctx.rounds)
    else:
        rounds = float("nan")
    return {"rounds": rounds, "completed": float(done is not None)}


@METRICS.register("coloring-quality")
def _metric_coloring_quality(ctx, *, graph: str = "union"):
    """Colour-count quality of the final output vs the union or final graph."""
    trace = ctx.trace
    r = trace.num_rounds
    topo = trace.graph.union_graph(r, ctx.T1) if graph == "union" else trace.topology(r)
    return coloring_quality(topo, trace.outputs(r))


@METRICS.register("mis-quality")
def _metric_mis_quality(ctx):
    """MIS size of the final output vs a sequential greedy reference."""
    trace = ctx.trace
    return mis_quality(trace.topology(trace.num_rounds), trace.outputs(trace.num_rounds))


@METRICS.register("message-size")
def _metric_message_size(ctx):
    """Maximum estimated message size (bits) over the whole run."""
    max_bits = max(record.metrics.max_message_bits for record in ctx.trace)
    return {"max_message_bits": float(max_bits)}


@METRICS.register("trace-summary")
def _metric_trace_summary(ctx):
    """Basic run facts (rounds simulated)."""
    return {"trace_rounds": float(ctx.trace.num_rounds)}


@METRICS.register("output-activity", check=_durations("warmup"))
def _metric_output_activity(ctx, *, warmup=0):
    """Output-churn totals from the trace's stored changed-node sets.

    Delta-native: reads the per-round changed-output sets the engine recorded
    (O(#changes) total) instead of re-scanning all ``n`` outputs per round.
    Counts every changed node including newly awake ones (round 1 counts
    first outputs), i.e. the same notion as ``RoundMetrics.outputs_changed``.
    """
    trace = ctx.trace
    start = max(1, _resolve(ctx, warmup) + 1)
    per_round = [len(trace.changed_nodes(r)) for r in range(start, trace.num_rounds + 1)]
    if not per_round:
        return {"total_changed_outputs": 0.0, "max_changed_outputs": 0.0, "activity_rounds": 0.0}
    return {
        "total_changed_outputs": float(sum(per_round)),
        "max_changed_outputs": float(max(per_round)),
        "activity_rounds": float(len(per_round)),
    }


@METRICS.register("region-stability", check=_durations("grace"))
def _metric_region_stability(ctx, *, grace="2*T1+2"):
    """Output changes inside vs outside a locally-static adversary's protected ball (E5)."""
    protected = ctx.adversary.protected_nodes
    base = ctx.base
    inner = {v for v in protected if base.ball(v, 2) <= protected}
    outer = set(base.nodes) - protected
    window = Interval(_resolve(ctx, grace), ctx.trace.num_rounds)
    return {
        "protected_nodes": float(len(inner)),
        "changes_protected": float(region_change_count(ctx.trace, inner, window)),
        "changes_control": float(region_change_count(ctx.trace, outer, window)),
    }


@METRICS.register("conflict-durations", check=_durations("max_wait"))
def _metric_conflict_durations(ctx, *, max_wait="2*T1"):
    """Resolution times of adversarially inserted conflicts (E3)."""
    durations = conflict_resolution_times(
        ctx.trace, ctx.adversary.attack_log, max_wait=_resolve(ctx, max_wait)
    )
    resolved = [d for d in durations if not d["censored"]]
    if not resolved:
        return {"attacks": 0.0, "mean_duration": float("nan"), "max_duration": float("nan")}
    values = [d["duration"] for d in resolved]
    return {
        "attacks": float(len(resolved)),
        "mean_duration": sum(values) / len(values),
        "max_duration": max(values),
    }


@METRICS.register("freeze-decision")
def _metric_freeze_decision(ctx, *, churn_rounds):
    """Rounds to all-decided after a freeze, and output changes afterwards (E8)."""
    trace = ctx.trace
    frozen_at = _resolve(ctx, churn_rounds)
    decided_round = None
    changes_after = 0
    walk = DecisionWalk(trace)
    for r in range(1, trace.num_rounds + 1):
        walk.advance()
        if decided_round is not None:
            changes_after += walk.changes
        elif r > frozen_at and walk.all_decided:
            decided_round = r
    return {
        "rounds_after_freeze": float(decided_round - frozen_at)
        if decided_round is not None
        else float("nan"),
        "changes_after_decided": float(changes_after),
    }


@METRICS.register("mis-edge-decay")
def _metric_mis_edge_decay(ctx, *, min_edges: int = 4):
    """Per-seed ingredients of the Lemma 5.2 two-round edge-decay ratio (E6).

    Returns partial sums so the experiment can pool ratios across seeds
    exactly like the pre-scenario implementation did.
    """
    trace = ctx.trace
    # Round r counts the edges present in every round 1 … r (the intersection
    # over [1, r]) whose endpoints were both undecided after round r - 1.
    walk = WindowWalk(trace.graph)
    undecided = np.ones(trace.n, dtype=bool)
    edge_counts = []
    for r in range(1, trace.num_rounds + 1):
        walk.advance()
        u, v = walk.intersection_edges(r)
        edge_counts.append(int(np.count_nonzero(undecided[u] & undecided[v])))
        update = trace.output_update(r)
        if update:
            undecided[list(update)] = [value is None for value in update.values()]
    ratios = [
        edge_counts[i + 2] / edge_counts[i]
        for i in range(len(edge_counts) - 2)
        if edge_counts[i] >= min_edges
    ]
    return {
        "ratio_sum": float(sum(ratios)),
        "ratio_count": float(len(ratios)),
        "initial_edges": float(edge_counts[0]) if edge_counts else 0.0,
        "rounds_to_empty": float(
            next((i + 1 for i, c in enumerate(edge_counts) if c == 0), float("nan"))
        ),
    }


@METRICS.register("b1-violations")
def _metric_b1_violations(ctx, *, problem: str, start_round="T1"):
    """Fraction of rounds violating the partial-solution property B.1 (E13b)."""
    start = _resolve(ctx, start_round)
    violations = verify_partial_solution_every_round(
        ctx.trace, problem_pair_by_name(problem), start_round=start
    )
    checked = max(1, ctx.trace.num_rounds - start + 1)
    return {"b1_violation_fraction": len(violations) / checked}


@METRICS.register("last-wakers-convergence")
def _metric_last_wakers(ctx, *, tail: int = 8):
    """Wake and decision rounds of the last ``tail`` nodes to wake up (examples)."""
    trace = ctx.trace
    last_batch = list(range(ctx.n - tail, ctx.n))
    walk = WindowWalk(trace.graph)
    walk.advance_to(trace.num_rounds)
    last_batch_wake = float(walk.woke[last_batch].max())
    if last_batch_wake > trace.num_rounds:  # part of the batch never woke
        last_batch_wake = float("nan")
    # a decided node is awake, so the batch never decides before it wakes
    converged = completion_round_for_nodes(trace, last_batch)
    return {
        "last_batch_wake_round": last_batch_wake,
        "last_batch_decided_round": float(converged) if converged is not None else float("nan"),
        "rounds_to_decide_after_wake": float(converged - last_batch_wake)
        if converged
        else float("nan"),
    }


# ---------------------------------------------------------------------------
# probes — per-round observers
# ---------------------------------------------------------------------------


@PROBES.register("palette-shrink")
class _PaletteShrinkProbe:
    """E2: classify uncoloured node-rounds into "palette shrank ≥ 1/4" vs
    "no big shrink", and count colourings conditioned on the latter."""

    def __init__(self, ctx, *, shrink_factor: float = 0.75) -> None:
        self._ctx = ctx
        self._shrink_factor = shrink_factor
        self.shrink_events = 0
        self.no_shrink_events = 0
        self.colored_given_no_shrink = 0
        self._previous_palette: Dict[int, frozenset] = {}
        self._previous_uncolored: set = set()

    def observe(self, sim) -> bool:
        algorithm = self._ctx.algorithm
        outputs = sim.trace.outputs(sim.trace.num_rounds)
        for v in self._previous_uncolored:
            before = self._previous_palette.get(v, frozenset())
            after = algorithm.palette_of(v)
            if not before:
                continue
            if len(after) <= self._shrink_factor * len(before):
                self.shrink_events += 1
            else:
                self.no_shrink_events += 1
                if outputs.get(v) is not None:
                    self.colored_given_no_shrink += 1
        self._previous_uncolored = {
            v for v in sim.trace.topology(sim.trace.num_rounds).nodes if outputs.get(v) is None
        }
        self._previous_palette = {
            v: algorithm.palette_of(v) for v in self._previous_uncolored
        }
        return not self._previous_uncolored

    def finish(self) -> Dict[str, float]:
        return {
            "node_rounds_shrink": float(self.shrink_events),
            "node_rounds_no_shrink": float(self.no_shrink_events),
            "colored_given_no_shrink": float(self.colored_given_no_shrink),
        }


@PROBES.register("palette-invariant")
class _PaletteInvariantProbe:
    """E13a: check the Lemma 4.2 palette invariant ``|P_v| >= |U(v)| + 1`` every
    round, against the algorithm's communication graph (``restricted=True``)
    or the current graph (the ablation's view)."""

    def __init__(self, ctx, *, restricted: bool = True) -> None:
        self._ctx = ctx
        self._restricted = restricted
        self.violations = 0
        self.observations = 0

    def observe(self, sim) -> bool:
        algorithm = self._ctx.algorithm
        r = sim.trace.num_rounds
        outputs = sim.trace.outputs(r)
        topo = sim.trace.topology(r)
        for v in topo.nodes:
            if outputs.get(v) is not None:
                continue
            palette = algorithm.palette_of(v)
            if self._restricted:
                comm_neighbors = algorithm.live_neighbors_of(v)
            else:
                comm_neighbors = topo.neighbors(v)
            uncolored_neighbors = sum(1 for u in comm_neighbors if outputs.get(u) is None)
            self.observations += 1
            if len(palette) < uncolored_neighbors + 1:
                self.violations += 1
        return False

    def finish(self) -> Dict[str, float]:
        trace = self._ctx.trace
        final = trace.outputs(trace.num_rounds)
        uncolored = sum(
            1 for v in trace.topology(trace.num_rounds).nodes if final.get(v) is None
        )
        return {
            "palette_invariant_violation_fraction": self.violations / self.observations
            if self.observations
            else 0.0,
            "uncolored_fraction": uncolored / self._ctx.n,
        }


@PROBES.register("activity")
class _ActivityProbe:
    """Engine-activity observer consuming the round's dirty set and delta.

    Delta-native: reads :attr:`~repro.runtime.simulator.Simulator.last_round_activity`
    (the incremental engine's own bookkeeping) instead of scanning all ``n``
    outputs per round — the probe itself is O(1) per round.  Reports how
    quiescent the run was: mean/max dirty-frontier size, the fraction of
    node-rounds that were active, and the mean topology churn per round.
    """

    def __init__(self, ctx) -> None:
        self._ctx = ctx
        self._active: list[int] = []
        self._changed: list[int] = []
        self._churn: list[int] = []

    def observe(self, sim) -> bool:
        activity = sim.last_round_activity
        self._active.append(activity.num_active)
        self._changed.append(len(activity.changed_outputs))
        self._churn.append(activity.delta.num_changes)
        return False

    def finish(self) -> Dict[str, float]:
        rounds = max(1, len(self._active))
        total_active = float(sum(self._active))
        return {
            "mean_active": total_active / rounds,
            "max_active": float(max(self._active, default=0)),
            "active_node_round_fraction": total_active / (rounds * max(1, self._ctx.n)),
            "mean_changed_outputs": float(sum(self._changed)) / rounds,
            "mean_topology_churn": float(sum(self._churn)) / rounds,
        }
