"""The confound-matrix contract suite behind ``repro verify``.

Two families of checks, both declared through the ``CONTRACTS`` registry
(mirroring the :mod:`repro.scenarios` registry idiom — ``repro components``
and :func:`repro.scenarios.registry.available` list them alongside the other
component families):

**Observational-equivalence contracts** run *paired* configurations on shared
base seeds and gate on byte-identical trace rows.  Sharing the seeds removes
seed variance from the comparison entirely, so any divergence is the
manipulation under test, not replication noise — the confound the
paired-run design exists to kill.

* ``delivery-equivalence`` — full vs incremental vs kernel delivery, on
  built-in cases and on every committed scenario config (the one
  fast-vs-full gate);
* ``backend-equivalence`` — the serial loop vs every execution backend;
* ``gnp-networkx-identity`` — the array ``G(n, p)`` generator vs networkx's
  ``fast_gnp_random_graph`` on the same seed, in content and set iteration
  order (fails if a future networkx changes its draw sequence);
* ``scale-equivalence`` — halved churn rate vs doubled ``window_scale``
  (statistical: per-window exposure must be indistinguishable).

**Metamorphic properties** check invariances the simulator must honour
without a second implementation to compare against:

* ``relabel-isomorphism`` — permuting node labels permutes the trace and
  nothing else;
* ``time-scaling`` — ``window_scale`` reaches the engine proportionally;
* ``manipulation-exists`` — every spec override in the committed configs
  lands on a parameter a registered component actually accepts (the
  "manipulated knob silently doesn't exist" bug class).

Each contract is a callable ``(ctx: VerifyContext) -> Iterable[Verdict]``;
the harness (:mod:`repro.verify.harness`) drives them and stores the verdict
rows through the content-addressed results store.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import networkx as nx

from repro.errors import ConfigurationError
from repro.types import NodeId, canonical_edge
from repro.core.windows import default_window, window_for
from repro.dynamics.adversaries import ScriptedAdversary
from repro.dynamics.generators import gnp_edge_arrays
from repro.dynamics.topology import Topology, topology_from_networkx
from repro.runtime.algorithm import DistributedAlgorithm
from repro.runtime.messages import Message
from repro.runtime.simulator import Simulator
from repro.scenarios.configs import load_config, validate_config
from repro.scenarios.executor import _build_context, _execute_seed, run_scenario
from repro.scenarios.registry import (
    ADVERSARIES,
    ALGORITHMS,
    PROBES,
    REGISTRIES,
    STOP_CONDITIONS,
    TOPOLOGIES,
    WAKEUPS,
    Registry,
    accepted_parameters,
    suggestion_hint,
)
from repro.scenarios.spec import ComponentSpec, ScenarioSpec, component

__all__ = ["CONTRACTS", "Verdict", "VerifyContext"]

#: Validation contracts: ``(ctx: VerifyContext) -> Iterable[Verdict]``.
CONTRACTS = Registry("contract")

# The contract family joins the scenario discovery surface: `repro
# components` and available() list contracts next to adversaries etc.
REGISTRIES["contracts"] = CONTRACTS


@dataclass(frozen=True)
class Verdict:
    """One structured contract outcome (the row ``repro verify`` stores)."""

    contract: str
    case: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status not in ("pass", "fail", "skip"):
            raise ConfigurationError(f"verdict status must be pass/fail/skip, got {self.status!r}")

    def as_row(self) -> Dict[str, Any]:
        """JSON-safe row for the results store."""
        return {
            "contract": self.contract,
            "case": self.case,
            "status": self.status,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class VerifyContext:
    """Everything a contract sees: which suite runs, and where configs live."""

    suite: str = "smoke"
    configs_dir: Path = Path("configs")

    @property
    def smoke(self) -> bool:
        """Whether the fast CI subset is running (``full`` unlocks more cases)."""
        return self.suite != "full"


def _passed(contract: str, case: str, detail: str = "") -> Verdict:
    return Verdict(contract=contract, case=case, status="pass", detail=detail)


def _failed(contract: str, case: str, detail: str) -> Verdict:
    return Verdict(contract=contract, case=case, status="fail", detail=detail)


def _skipped(contract: str, case: str, detail: str) -> Verdict:
    return Verdict(contract=contract, case=case, status="skip", detail=detail)


# ---------------------------------------------------------------------------
# shared pairing helpers
# ---------------------------------------------------------------------------


def _comparable_trace_rows(sim: Simulator) -> List[tuple]:
    """Flatten a run's trace into the per-round tuples the contracts compare."""
    return [
        (
            record.round_index,
            record.topology.nodes,
            record.topology.edges,
            dict(record.outputs),
            record.metrics.as_dict(),
        )
        for record in sim.trace
    ]


def _first_divergence(rows_a: List[tuple], rows_b: List[tuple]) -> str:
    """Describe where two comparable-trace-row lists part ways."""
    if len(rows_a) != len(rows_b):
        return f"trace lengths differ ({len(rows_a)} vs {len(rows_b)} rounds)"
    for a, b in zip(rows_a, rows_b):
        if a != b:
            parts = []
            if a[1] != b[1]:
                parts.append("nodes")
            if a[2] != b[2]:
                parts.append("edges")
            if a[3] != b[3]:
                parts.append("outputs")
            if a[4] != b[4]:
                parts.append("metrics")
            return f"round {a[0]} differs in {', '.join(parts) or 'unknown fields'}"
    return "metric rows differ"


# ---------------------------------------------------------------------------
# delivery-equivalence: full vs incremental vs kernel
# ---------------------------------------------------------------------------


#: What a fast path diverging from the full path says about the code.
_BLAME = {
    "incremental": "the algorithm's message_stability='pure' declaration is wrong",
    "kernel": "the array kernel diverges from its reference algorithm",
}


@CONTRACTS.register("delivery-equivalence")
def _contract_delivery_equivalence(ctx: VerifyContext) -> Iterator[Verdict]:
    """Full, incremental and kernel delivery produce byte-identical traces."""
    name = "delivery-equivalence"
    n = 24 if ctx.smoke else 48
    rounds = 10 if ctx.smoke else 24
    seeds = (0, 1) if ctx.smoke else (0, 1, 2)
    markov = component("markov-churn", p_off=0.05, p_on=0.05)
    flip = component("flip-churn", flip_prob=0.1)
    palettes = component("palette-shrink")
    cases: List[Tuple[str, ComponentSpec, Optional[ComponentSpec]]] = [
        ("scolor", markov, None),
        ("smis", flip, None),
        # the standalone DAlg kernels: live sets joined at wake, shrunk by churn
        ("dmis", markov, None),
        ("dmis", flip, None),
        ("dcolor", markov, None),
        ("dcolor", flip, None),
        # the ablations run on their base algorithm's kernel
        ("smis-no-undecide", flip, None),
        ("scolor-no-uncolor", flip, None),
        # E2's probe reads every palette every round, which no trace row shows.
        ("basic-coloring", markov, palettes),
        ("scolor", markov, palettes),
        ("dcolor", markov, palettes),
        # Theorem 1.1's combiners: no pure contract, so only the kernel path.
        ("dynamic-coloring", flip, None),
        ("dynamic-coloring", markov, None),
        ("dynamic-mis", flip, None),
        ("dynamic-mis", markov, None),
    ]
    for algorithm, adversary, probe in cases:
        spec = ScenarioSpec(
            n=n, algorithm=algorithm, adversary=adversary, rounds=rounds, seeds=seeds, probe=probe
        )
        label = f"{algorithm}/{adversary.name}" + (f"+{probe.name}" if probe else "")
        yield from _compare_delivery(name, label, spec)
    # Every committed scenario config, at its own size and seeds.
    configs_dir = Path(ctx.configs_dir)
    if not configs_dir.is_dir():
        yield _skipped(name, str(configs_dir), "configs directory does not exist")
        return
    for config_path in sorted(configs_dir.rglob("*.json")):
        try:
            config = load_config(config_path)
        except ConfigurationError as exc:
            yield _failed(name, str(config_path), f"does not load: {exc}")
            continue
        if config.kind == "scenario":
            yield from _compare_delivery(name, config.label, config.spec)


def _engine_path(spec: ScenarioSpec) -> str:
    """The delivery path the engine resolves for ``spec`` (built, not run)."""
    ctx = _build_context(spec, spec.seeds[0])
    return Simulator(
        n=ctx.n,
        algorithm=ctx.algorithm,
        adversary=ctx.adversary,
        seed=ctx.seed,
        delivery=spec.delivery,
        expose_state_to_adversary=spec.expose_state_to_adversary,
    ).delivery


def _compare_delivery(contract: str, label: str, spec: ScenarioSpec) -> Iterator[Verdict]:
    """One verdict per fast path: ``spec`` on that path vs on the full path."""
    # The reference drops the retention knob too, so a "stats" run is checked
    # against an independently recorded full-retention trace.  It runs once
    # per seed, shared by both fast paths.
    reference = spec.replace(delivery="full", trace_retention=None)

    @functools.lru_cache(maxsize=None)
    def full_run(seed: int) -> Tuple[Dict[str, Any], List[tuple]]:
        row, sim = _execute_seed(reference, seed)
        return row, _comparable_trace_rows(sim)

    for path, blame in _BLAME.items():
        case = f"{label}:{path}"
        candidate = spec.replace(delivery=path)
        resolved = _engine_path(candidate)
        if resolved != path:
            # Loud, not silent: the candidate path was refused (no pure
            # contract / no kernel) and the comparison would be vacuous.
            yield _skipped(
                contract,
                case,
                f"{path!r} delivery unavailable for {spec.algorithm.name!r} "
                f"— engine degraded to {resolved!r}",
            )
            continue
        yield _compare_path(contract, case, candidate, full_run, blame)


#: The "activity" probe's keys that read the engine's dirty set: bookkeeping
#: that differs between delivery paths by design.
_DIRTY_SET_KEYS = ("mean_active", "max_active", "active_node_round_fraction")


def _compare_path(
    contract: str, case: str, candidate: ScenarioSpec, full_run: Callable, blame: str
) -> Verdict:
    activity = candidate.probe is not None and candidate.probe.name == "activity"
    exempt = _DIRTY_SET_KEYS if activity else ()
    for seed in candidate.seeds:
        row_full, rows_full = full_run(seed)
        row_fast, sim_fast = _execute_seed(candidate, seed)
        rows_fast = _comparable_trace_rows(sim_fast)
        row_full = {k: v for k, v in row_full.items() if k not in exempt}
        row_fast = {k: v for k, v in row_fast.items() if k not in exempt}
        if rows_full != rows_fast or row_full != row_fast:
            if rows_full == rows_fast:
                keys = sorted(
                    k for k in {**row_full, **row_fast} if row_full.get(k) != row_fast.get(k)
                )
                where = f"metric row differs in {keys}"
            else:
                where = _first_divergence(rows_fast, rows_full)
            return _failed(
                contract,
                case,
                f"{candidate.delivery} delivery diverges from the full path for algorithm "
                f"{candidate.algorithm.name!r} (seed {seed}): {where}; {blame}",
            )
    return _passed(contract, case, f"{len(candidate.seeds)} shared seeds byte-identical")


# ---------------------------------------------------------------------------
# backend-equivalence: serial vs every exec backend
# ---------------------------------------------------------------------------


@CONTRACTS.register("backend-equivalence")
def _contract_backend_equivalence(ctx: VerifyContext) -> Iterator[Verdict]:
    """Every execution backend reproduces the serial loop's rows byte for byte."""
    name = "backend-equivalence"
    spec = ScenarioSpec(
        n=20 if ctx.smoke else 32,
        algorithm="dynamic-coloring",
        adversary=component("flip-churn", flip_prob=0.1),
        rounds=10 if ctx.smoke else 20,
        seeds=(0, 1) if ctx.smoke else (0, 1, 2, 3),
        metrics=(component("stability"),),
    )
    reference = run_scenario(spec, execution="serial").rows
    # ``remote`` runs on its default loopback transport: the same JSON wire
    # form and worker loop an ssh fleet runs.
    backends = ["process"] if ctx.smoke else ["process", "remote"]
    for backend in backends:
        rows = run_scenario(spec, execution=backend).rows
        if rows != reference:
            yield _failed(name, backend, f"{backend!r} rows differ from the serial loop")
        else:
            yield _passed(name, backend, f"{len(rows)} rows byte-identical to serial")
    if ctx.smoke:
        # No silent caps: say why the smoke suite leaves remote out.
        yield _skipped(name, "remote", "worker cold start — covered by the full suite")


# ---------------------------------------------------------------------------
# gnp-networkx-identity: the array generator builds networkx's graphs
# ---------------------------------------------------------------------------


@CONTRACTS.register("gnp-networkx-identity")
def _contract_gnp_networkx_identity(ctx: VerifyContext) -> Iterator[Verdict]:
    """The array G(n, p) equals networkx's fast_gnp_random_graph, set order included."""
    name = "gnp-networkx-identity"
    for n in (1, 2, 64, 2000):
        for p in dict.fromkeys((1e-6, min(1.0, 8.0 / max(n - 1, 1)), 0.5, 0.999, 1.0)):
            if ctx.smoke and n * (n - 1) / 2 * p > 100_000:
                continue  # the dense n=2000 graphs (10^6 edges each): full suite only
            for seed in (0, 1, 2):
                yield _compare_gnp(name, n, p, seed)
    if ctx.smoke:
        yield _skipped(name, "n=2000/p>=0.5", "10^6-edge graphs — covered by the full suite")


def _compare_gnp(contract: str, n: int, p: float, seed: int) -> Verdict:
    # One case per call, so a dense case's graphs are freed before the next.
    case = f"n={n}/p={p:g}/seed={seed}"
    theirs = topology_from_networkx(nx.fast_gnp_random_graph(n, p, seed=seed))
    ours = Topology.from_arrays(range(n), *gnp_edge_arrays(n, p, seed))
    if ours != theirs:
        return _failed(contract, case, f"different graphs: m={ours.num_edges} vs {theirs.num_edges}")
    if not ours.iterates_like(theirs):
        return _failed(contract, case, "same graph, different set iteration order")
    return _passed(contract, case, f"m={ours.num_edges}")


# ---------------------------------------------------------------------------
# relabel-isomorphism (metamorphic)
# ---------------------------------------------------------------------------


class _RelabeledAlgorithm(DistributedAlgorithm):
    """Runs ``inner`` under a node relabeling, translating at the API boundary.

    The simulator speaks permuted labels; the inner algorithm keeps the
    original ones (so its per-node random streams are untouched).  A
    conforming algorithm's behaviour may depend on node identity only through
    the opaque ids in its inboxes — never on the simulator's iteration order
    over the (now differently-hashed) awake sets — which is exactly the
    invariance this wrapper makes observable.
    """

    message_stability = "none"  # pin the classic full engine

    def __init__(self, inner: DistributedAlgorithm, to_original: Mapping[NodeId, NodeId]) -> None:
        super().__init__()
        self._inner = inner
        self._to_original = dict(to_original)

    def setup(self, setup) -> None:
        super().setup(setup)
        self._inner.setup(setup)

    def on_wake(self, v: NodeId) -> None:
        self._inner.wake(self._to_original[v])

    def begin_round(self, round_index: int) -> None:
        self._inner.begin_round(round_index)

    def compose(self, v: NodeId) -> Message:
        return self._inner.compose(self._to_original[v])

    def deliver(self, v: NodeId, inbox: Mapping[NodeId, Message]) -> None:
        translated = {self._to_original[u]: message for u, message in inbox.items()}
        self._inner.deliver(self._to_original[v], translated)

    def end_round(self, round_index: int) -> None:
        self._inner.end_round(round_index)

    def output(self, v: NodeId):
        return self._inner.output(self._to_original[v])

    def metrics(self) -> Mapping[str, float]:
        return self._inner.metrics()

    def state_summary(self) -> Any:
        return self._inner.state_summary()


def _permute_rows(rows: List[tuple], mapping: Mapping[NodeId, NodeId]) -> List[tuple]:
    """Map comparable trace rows through a node relabeling."""
    permuted = []
    for round_index, nodes, edges, outputs, metrics in rows:
        permuted.append(
            (
                round_index,
                frozenset(mapping[v] for v in nodes),
                frozenset(canonical_edge(mapping[u], mapping[v]) for u, v in edges),
                {mapping[v]: value for v, value in outputs.items()},
                metrics,
            )
        )
    return permuted


@CONTRACTS.register("relabel-isomorphism")
def _contract_relabel_isomorphism(ctx: VerifyContext) -> Iterator[Verdict]:
    """Permuting node labels permutes the trace rows exactly — and nothing else."""
    name = "relabel-isomorphism"
    n = 20 if ctx.smoke else 32
    rounds = 10 if ctx.smoke else 20
    seeds = (0, 1) if ctx.smoke else (0, 1, 2)
    cases: List[Tuple[str, ComponentSpec]] = [
        ("dynamic-coloring", component("flip-churn", flip_prob=0.1)),
        ("smis", component("markov-churn", p_off=0.05, p_on=0.05)),
    ]
    for algorithm, adversary in cases:
        spec = ScenarioSpec(
            n=n, algorithm=algorithm, adversary=adversary, rounds=rounds, seeds=seeds
        )
        yield _compare_relabeled(name, f"{algorithm}/{adversary.name}", spec)


def _compare_relabeled(contract: str, case: str, spec: ScenarioSpec) -> Verdict:
    for seed in spec.seeds:
        base_ctx = _build_context(spec, seed)
        base_sim = Simulator(
            n=base_ctx.n,
            algorithm=base_ctx.algorithm,
            adversary=base_ctx.adversary,
            seed=base_ctx.seed,
            delivery="full",
        )
        base_sim.run(base_ctx.rounds)
        base_rows = _comparable_trace_rows(base_sim)

        permutation = base_ctx.stream("verify", "relabel").permutation(spec.n)
        to_permuted = {v: int(permutation[v]) for v in range(spec.n)}
        to_original = {pv: v for v, pv in to_permuted.items()}

        relabeled_topologies = [
            Topology(
                (to_permuted[v] for v in record.topology.nodes),
                ((to_permuted[u], to_permuted[v]) for u, v in record.topology.edges),
            )
            for record in base_sim.trace
        ]
        # A second context from the same seed: the inner algorithm draws the
        # byte-identical per-node streams the base run consumed.
        replay_ctx = _build_context(spec, seed)
        relabeled_sim = Simulator(
            n=spec.n,
            algorithm=_RelabeledAlgorithm(replay_ctx.algorithm, to_original),
            adversary=ScriptedAdversary(relabeled_topologies),
            seed=seed,
            delivery="full",
        )
        relabeled_sim.run(len(relabeled_topologies))

        expected = _permute_rows(base_rows, to_permuted)
        actual = _comparable_trace_rows(relabeled_sim)
        if actual != expected:
            return _failed(
                contract,
                case,
                f"relabeled trace is not the permuted base trace (seed {seed}): "
                + _first_divergence(actual, expected),
            )
    return _passed(contract, case, f"{len(spec.seeds)} seeds map back exactly")


# ---------------------------------------------------------------------------
# scale-equivalence: churn rate vs window scale (statistical)
# ---------------------------------------------------------------------------


def _per_window_exposure(sim: Simulator, T1: int) -> Tuple[float, float]:
    """(edge churn, output changes) per stability window, averaged over rounds.

    Round 1 is excluded: it wakes the whole graph at once, which is start-up,
    not churn.
    """
    records = list(sim.trace)
    churn_total = 0
    changes_total = 0
    previous_edges = records[0].topology.edges
    for record in records[1:]:
        churn_total += len(record.topology.edges ^ previous_edges)
        previous_edges = record.topology.edges
        changes_total += record.metrics.outputs_changed
    steady_rounds = max(1, len(records) - 1)
    return (
        churn_total / steady_rounds * T1,
        changes_total / steady_rounds * T1,
    )


@CONTRACTS.register("scale-equivalence")
def _contract_scale_equivalence(ctx: VerifyContext) -> Iterator[Verdict]:
    """Halving the churn rate while doubling ``window_scale`` preserves per-window exposure."""
    name = "scale-equivalence"
    n = 32
    flip = 0.08
    seeds = (0, 1, 2) if ctx.smoke else (0, 1, 2, 3, 4, 5)

    def build(flip_prob: float, scale: float) -> ScenarioSpec:
        return ScenarioSpec(
            n=n,
            algorithm="dynamic-coloring",
            adversary=component("flip-churn", flip_prob=flip_prob),
            rounds="4*T1",
            seeds=seeds,
            window_scale=scale,
        )

    spec_fast = build(flip, 1.0)
    spec_slow = build(flip / 2.0, 2.0)
    churn: Dict[str, List[float]] = {"fast": [], "slow": []}
    changes: Dict[str, List[float]] = {"fast": [], "slow": []}
    for label, spec in (("fast", spec_fast), ("slow", spec_slow)):
        T1 = spec.resolved_window()
        for seed in seeds:
            _, sim = _execute_seed(spec, seed)
            per_window_churn, per_window_changes = _per_window_exposure(sim, T1)
            churn[label].append(per_window_churn)
            changes[label].append(per_window_changes)

    def relative_gap(a: List[float], b: List[float]) -> float:
        mean_a = sum(a) / len(a)
        mean_b = sum(b) / len(b)
        return abs(mean_a - mean_b) / max(mean_a, mean_b, 1e-9)

    churn_gap = relative_gap(churn["fast"], churn["slow"])
    changes_gap = relative_gap(changes["fast"], changes["slow"])
    detail = (
        f"per-window edge churn gap {churn_gap:.2%}, "
        f"per-window output-change gap {changes_gap:.2%} over {len(seeds)} shared seeds"
    )
    # The environmental knob (adversarial churn per window) is what the
    # scaling must hold exactly in expectation; the algorithm's response is
    # gated loosely — it only guards against gross non-linearity.
    if churn_gap > 0.25:
        yield _failed(name, "edge-churn-per-window", detail)
    else:
        yield _passed(name, "edge-churn-per-window", detail)
    if changes_gap > 0.75:
        yield _failed(name, "output-changes-per-window", detail)
    else:
        yield _passed(name, "output-changes-per-window", detail)


# ---------------------------------------------------------------------------
# time-scaling (metamorphic)
# ---------------------------------------------------------------------------


@CONTRACTS.register("time-scaling")
def _contract_time_scaling(ctx: VerifyContext) -> Iterator[Verdict]:
    """``window``/``window_scale`` reach the engine: run lengths scale proportionally."""
    name = "time-scaling"
    n = 24
    adversary = component("flip-churn", flip_prob=0.05)
    for scale in (0.5, 2.0):
        case = f"window_scale={scale}"
        spec = ScenarioSpec(
            n=n,
            algorithm="dynamic-coloring",
            adversary=adversary,
            rounds="2*T1",
            seeds=(0,),
            window_scale=scale,
        )
        expected_window = window_for(n, scale)
        if spec.resolved_window() != expected_window:
            yield _failed(
                name,
                case,
                f"resolved_window() = {spec.resolved_window()}, expected {expected_window}",
            )
            continue
        build_ctx = _build_context(spec, 0)
        if build_ctx.T1 != expected_window or build_ctx.rounds != 2 * expected_window:
            yield _failed(
                name,
                case,
                f"context resolved T1={build_ctx.T1}, rounds={build_ctx.rounds}; "
                f"expected T1={expected_window}, rounds={2 * expected_window}",
            )
            continue
        _, sim = _execute_seed(spec, 0)
        if sim.trace.num_rounds != 2 * expected_window:
            yield _failed(
                name,
                case,
                f"engine simulated {sim.trace.num_rounds} rounds, "
                f"expected {2 * expected_window} — the window knob did not reach it",
            )
            continue
        yield _passed(name, case, f"T1={expected_window}, {sim.trace.num_rounds} rounds simulated")
    # The unscaled anchors the proportionality claim.
    base = ScenarioSpec(n=n, algorithm="dynamic-coloring", adversary=adversary, seeds=(0,))
    if base.resolved_window() != default_window(n):
        yield _failed(
            name,
            "default-window",
            f"resolved_window() = {base.resolved_window()}, expected {default_window(n)}",
        )
    else:
        yield _passed(name, "default-window", f"default_window({n}) = {default_window(n)}")
    explicit = base.replace(window=17)
    if explicit.resolved_window() != 17:
        yield _failed(
            name, "explicit-window", f"resolved_window() = {explicit.resolved_window()}, expected 17"
        )
    else:
        yield _passed(name, "explicit-window", "explicit window wins over defaults")


# ---------------------------------------------------------------------------
# manipulation-exists: every committed override reaches a component
# ---------------------------------------------------------------------------

_SPEC_FIELDS = frozenset(f.name for f in ScenarioSpec.__dataclass_fields__.values())

_COMPONENT_REGISTRY: Dict[str, Registry] = {
    "topology": TOPOLOGIES,
    "adversary": ADVERSARIES,
    "algorithm": ALGORITHMS,
    "wakeup": WAKEUPS,
    "probe": PROBES,
    "stop": STOP_CONDITIONS,
}


def _sweep_axis_problems(spec: ScenarioSpec, over: Mapping[str, Sequence[Any]]) -> List[str]:
    problems: List[str] = []
    for axis in over:
        parts = axis.split(".")
        if len(parts) == 1:
            if parts[0] not in _SPEC_FIELDS:
                hint = suggestion_hint(parts[0], _SPEC_FIELDS)
                problems.append(
                    f"sweep axis {axis!r} is not a ScenarioSpec field{hint} "
                    f"— the manipulation silently doesn't exist"
                )
            continue
        if len(parts) == 3 and parts[1] == "params" and parts[0] in _COMPONENT_REGISTRY:
            registry = _COMPONENT_REGISTRY[parts[0]]
            ref = getattr(spec, parts[0])
            if ref is None or ref.name not in registry:
                continue  # validate_config already reports the broken slot
            accepted = accepted_parameters(registry.get(ref.name))
            if accepted is not None and parts[2] not in accepted:
                hint = suggestion_hint(parts[2], accepted)
                problems.append(
                    f"sweep axis {axis!r}: {parts[0]} {ref.name!r} does not accept "
                    f"parameter {parts[2]!r}{hint} (accepted: {sorted(accepted)})"
                )
    return problems


@CONTRACTS.register("manipulation-exists")
def _contract_manipulation_exists(ctx: VerifyContext) -> Iterator[Verdict]:
    """Every override in the committed configs reaches a registered component."""
    name = "manipulation-exists"
    configs_dir = Path(ctx.configs_dir)
    if not configs_dir.is_dir():
        yield _skipped(name, str(configs_dir), "configs directory does not exist")
        return
    paths = sorted(configs_dir.rglob("*.json"))
    if not paths:
        yield _skipped(name, str(configs_dir), "no JSON configs found")
        return
    for path in paths:
        case = str(path)
        try:
            config = load_config(path)
        except ConfigurationError as exc:
            yield _failed(name, case, f"does not load: {exc}")
            continue
        # Loading already rejects a spec parameter no component accepts.
        problems = list(validate_config(config))
        over = getattr(config, "over", None)
        if over:
            problems.extend(_sweep_axis_problems(config.spec, over))
        if problems:
            yield _failed(name, case, "; ".join(problems))
        else:
            yield _passed(name, case, "every override reaches a registered component")
