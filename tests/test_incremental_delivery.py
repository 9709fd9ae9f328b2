"""The quiescence-aware incremental delivery engine.

Hard gates of the incremental-delivery refactor:

* the purity contract (``message_stability`` / ``compose_fingerprint``) is
  declared on every registered algorithm, and incremental and full delivery
  produce **byte-identical trace rows for the full registered algorithm ×
  adversary matrix**;
* an algorithm that *wrongly* declares the ``"pure"`` contract is caught by
  the ``delivery-equivalence`` contract of ``repro verify``;
* the engine's delta-native surface (``RoundActivity``, stored changed-node
  sets, the ``activity`` probe and ``output-activity`` metric) reports the
  real dirty set;
* the satellites: the per-worker base topology cache and the exec
  phase-timing collector.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.dynamics import generators
from repro.dynamics.adversaries.scripted import StaticAdversary
from repro.runtime.algorithm import DistributedAlgorithm, VOLATILE
from repro.runtime.simulator import Simulator
from repro.scenarios import ALGORITHMS, ScenarioSpec, available, component
from repro.scenarios.cli import main
from repro.scenarios.executor import _build_context, run_scenario
from repro.verify.harness import run_verify

# ---------------------------------------------------------------------------
# the full algorithm × adversary equivalence matrix
# ---------------------------------------------------------------------------

#: Workable parameters for every registered adversary (small but non-trivial).
_ADVERSARY_SPECS = {
    "static": component("static"),
    "flip-churn": component("flip-churn", flip_prob=0.1),
    "markov-churn": component("markov-churn", p_off=0.05, p_on=0.05),
    "burst-churn": component("burst-churn", burst_prob=0.3, drop_fraction=0.5),
    "edge-insertion": component("edge-insertion", insertions_per_round=2, lifetime=2),
    "targeted-coloring": component("targeted-coloring", attacks_per_round=2, lifetime=4),
    "targeted-mis": component("targeted-mis", mode="cut_notification", attacks_per_round=3),
    "locally-static": component("locally-static", flip_prob=0.1, protected_radius=2),
    "freeze-after": component(
        "freeze-after", inner={"name": "flip-churn", "params": {"flip_prob": 0.2}}, freeze_round=8
    ),
    "mobility": component("mobility", radius=0.3, speed=0.05),
}
SPARSE_GNP = component("gnp_degree", degree=2)

#: the registered algorithms whose build's ``as_kernel()`` returns a factory
_KERNEL_TAGGED = (
    "basic-coloring",
    "scolor",
    "scolor-no-uncolor",
    "smis",
    "smis-no-undecide",
    "dcolor",
    "dmis",
    "dynamic-coloring",
    "dynamic-mis",
)


def _trace_rows(spec: ScenarioSpec, seed: int, mode: str):
    """Run one seed with the forced delivery mode; flatten into comparable rows."""
    ctx = _build_context(spec, seed)
    sim = Simulator(
        n=ctx.n, algorithm=ctx.algorithm, adversary=ctx.adversary, seed=ctx.seed, delivery=mode
    )
    sim.run(ctx.rounds)
    return [
        (
            record.round_index,
            record.topology.nodes,
            record.topology.edges,
            dict(record.outputs),
            record.metrics.as_dict(),
        )
        for record in sim.trace
    ], sim


def _scenario_tree(tmp_path, spec: ScenarioSpec):
    """A config tree holding ``spec`` as its one scenario config."""
    scenarios = tmp_path / "configs" / "scenarios"
    scenarios.mkdir(parents=True)
    config = {"kind": "scenario", "spec": spec.to_dict()}
    (scenarios / f"{spec.name}.json").write_text(json.dumps(config), encoding="utf-8")
    return tmp_path / "configs"


class TestEquivalenceMatrix:
    def test_matrix_covers_every_registered_component(self):
        assert set(_ADVERSARY_SPECS) == set(available("adversaries"))

    @pytest.mark.parametrize("algorithm", sorted(available("algorithms")))
    def test_incremental_and_full_rows_identical(self, algorithm):
        """Every registered algorithm × every registered adversary: byte-identical."""
        for adversary in sorted(_ADVERSARY_SPECS):
            spec = ScenarioSpec(
                n=16,
                algorithm=algorithm,
                adversary=_ADVERSARY_SPECS[adversary],
                topology=SPARSE_GNP,
                rounds=12,
            )
            full_rows, _ = _trace_rows(spec, seed=7, mode="full")
            incremental_rows, _ = _trace_rows(spec, seed=7, mode="incremental")
            assert incremental_rows == full_rows, (
                f"incremental delivery diverged for {algorithm} × {adversary}"
            )

    @pytest.mark.parametrize("wakeup", ["staggered", "uniform-random"])
    def test_equivalence_under_async_wakeup(self, wakeup):
        for algorithm in ("dcolor", "smis", "dmis"):
            spec = ScenarioSpec(
                n=24,
                algorithm=algorithm,
                adversary=component("flip-churn", flip_prob=0.08),
                topology=SPARSE_GNP,
                rounds=20,
                wakeup=wakeup,
            )
            full_rows, _ = _trace_rows(spec, seed=2, mode="full")
            incremental_rows, _ = _trace_rows(spec, seed=2, mode="incremental")
            assert incremental_rows == full_rows

    def test_every_pure_algorithm_actually_runs_incrementally(self):
        """The matrix must exercise the new paths, not silently degrade."""
        pure = []
        kernel = []
        for name in available("algorithms"):
            spec = ScenarioSpec(n=8, algorithm=name, rounds=2)
            ctx = _build_context(spec, 0)
            sim = Simulator(n=ctx.n, algorithm=ctx.algorithm, adversary=ctx.adversary)
            if ctx.algorithm.message_stability == "pure":
                # Auto picks the array kernel when the algorithm provides one
                # and the adversary has a kernel plan, else incremental.
                assert sim.delivery in ("incremental", "kernel")
                pure.append(name)
                if sim.delivery == "kernel":
                    kernel.append(name)
            else:
                # no pure contract: the array kernel or the full path
                expected = "kernel" if name in _KERNEL_TAGGED else "full"
                assert sim.delivery == expected, name
        # The paper's standalone algorithms are all pure; the Concat
        # combiners and the restart baselines are audited "none".
        assert "dcolor" in pure and "smis" in pure
        assert len(pure) == 9
        # The four array-kernel algorithms must actually select the kernel
        # under the default (static) adversary.
        for name in ("basic-coloring", "scolor", "smis", "dmis"):
            assert name in kernel, f"{name} did not auto-select the kernel path"


# ---------------------------------------------------------------------------
# contract declarations + mode selection
# ---------------------------------------------------------------------------


class _PureNull(DistributedAlgorithm):
    name = "pure-null"
    message_stability = "pure"

    def on_wake(self, v):
        pass

    def compose(self, v):
        return None

    def compose_fingerprint(self, v):
        return None

    def deliver(self, v, inbox):
        pass

    def output(self, v):
        return 0


class TestModeSelection:
    def test_default_contract_is_conservative(self):
        assert DistributedAlgorithm.message_stability == "none"
        assert _PureNull().compose_fingerprint(0) is None
        assert DistributedAlgorithm.compose_fingerprint(_PureNull(), 0) is VOLATILE

    def _sim(self, algorithm, **kwargs):
        return Simulator(
            n=4, algorithm=algorithm, adversary=StaticAdversary(generators.ring(4)), **kwargs
        )

    def test_auto_selects_by_contract(self):
        assert self._sim(_PureNull()).delivery == "incremental"

        class Legacy(_PureNull):
            message_stability = "none"

        assert self._sim(Legacy()).delivery == "full"

    def test_forced_modes_and_degradation(self):
        assert self._sim(_PureNull(), delivery="full").delivery == "full"

        class Legacy(_PureNull):
            message_stability = "none"

        # Forcing incremental on an undeclared algorithm degrades to full:
        # the engine may not skip work the algorithm has not marked skippable.
        assert self._sim(Legacy(), delivery="incremental").delivery == "full"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            self._sim(_PureNull(), delivery="sometimes")


# ---------------------------------------------------------------------------
# the verification harness catches wrong declarations
# ---------------------------------------------------------------------------


class _ImpureDeclaredPure(DistributedAlgorithm):
    """Deliberately violates the contract it declares: ``deliver`` advances a
    per-node clock even on an unchanged inbox, and the message depends on it."""

    name = "impure-declared-pure"
    message_stability = "pure"

    def __init__(self):
        super().__init__()
        self._clock = {}

    def on_wake(self, v):
        self._clock[v] = 0

    def compose(self, v):
        return self._clock[v] // 3  # changes every third round, unannounced

    def compose_fingerprint(self, v):
        return 0  # wrongly claims the message never changes

    def deliver(self, v, inbox):
        self._clock[v] += 1  # state change on an unchanged inbox: impure

    def output(self, v):
        return self._clock[v] // 3


@pytest.fixture
def impure_algorithm_registered():
    ALGORITHMS.register(
        "impure-declared-pure", lambda ctx: _ImpureDeclaredPure(), overwrite=True
    )
    try:
        yield
    finally:
        ALGORITHMS.unregister("impure-declared-pure")


class TestVerificationHarness:
    def test_impure_algorithm_actually_diverges(self, impure_algorithm_registered):
        spec = ScenarioSpec(
            n=12,
            algorithm="impure-declared-pure",
            adversary=component("flip-churn", flip_prob=0.05),
            rounds=10,
        )
        full_rows, _ = _trace_rows(spec, seed=0, mode="full")
        incremental_rows, _ = _trace_rows(spec, seed=0, mode="incremental")
        assert incremental_rows != full_rows

    def test_contract_catches_wrong_declaration(self, impure_algorithm_registered, tmp_path):
        spec = ScenarioSpec(
            n=12,
            algorithm="impure-declared-pure",
            adversary=component("flip-churn", flip_prob=0.05),
            rounds=10,
            seeds=(0,),
            metrics=("trace-summary",),
            name="impure",
        )
        configs = _scenario_tree(tmp_path, spec)
        verdicts = run_verify(contracts=["delivery-equivalence"], configs_dir=configs)
        (verdict,) = [v for v in verdicts if v.case == "impure:incremental"]
        assert verdict.status == "fail"
        assert "message_stability='pure' declaration is wrong" in verdict.detail
        argv = ["verify", "--contracts", "delivery-equivalence", "--configs", str(configs)]
        assert main([*argv, "--no-store"]) == 1

    def test_contract_passes_honest_declarations(self, tmp_path):
        spec = ScenarioSpec(
            n=16,
            algorithm="dcolor",
            adversary=component("flip-churn", flip_prob=0.1),
            rounds=12,
            seeds=(1,),
            metrics=("trace-summary", "stability"),
            name="honest",
        )
        verdicts = run_verify(
            contracts=["delivery-equivalence"], configs_dir=_scenario_tree(tmp_path, spec)
        )
        assert [v.status for v in verdicts if v.case == "honest:incremental"] == ["pass"]


# ---------------------------------------------------------------------------
# the delta-native activity surface
# ---------------------------------------------------------------------------


class TestActivitySurface:
    def test_quiescence_on_static_graph(self):
        """Once a pure algorithm converges on a static graph, rounds go idle."""
        sim = Simulator(
            n=12,
            algorithm=_PureNull(),
            adversary=StaticAdversary(generators.ring(12)),
            seed=0,
        )
        sim.run(3)
        activity = sim.last_round_activity
        assert activity.mode == "incremental"
        assert activity.round_index == 3
        # PureNull's constant message + fingerprint: after the wake round
        # nothing is volatile, nothing changes — the dirty set is empty.
        assert activity.delivered == frozenset()
        assert activity.composed == frozenset()
        assert activity.changed_outputs == frozenset()
        assert activity.num_active == 0
        # Round 1 delivered to everyone (all nodes woke).
        assert sim.trace.metrics(1).outputs_changed == 12

    def test_full_path_reports_all_nodes_active(self):
        sim = Simulator(
            n=6,
            algorithm=_PureNull(),
            adversary=StaticAdversary(generators.ring(6)),
            delivery="full",
        )
        sim.run(2)
        activity = sim.last_round_activity
        assert activity.mode == "full"
        assert activity.delivered == frozenset(range(6))
        assert activity.composed == frozenset(range(6))

    def test_trace_stores_changed_node_sets(self):
        spec = ScenarioSpec(
            n=16,
            algorithm="smis",
            adversary=component("markov-churn", p_off=0.05, p_on=0.05),
            rounds=15,
        )
        for mode in ("full", "incremental"):
            _, sim = _trace_rows(spec, seed=4, mode=mode)
            trace = sim.trace
            for r in trace.rounds():
                record = trace.record_at(r)
                assert record.changed is not None
                # The stored set must equal the from-scratch scan.
                previous = trace.outputs(r - 1) if r > 1 else {}
                current = trace.outputs(r)
                expected = frozenset(
                    v for v, value in current.items()
                    if v not in previous or previous[v] != value
                )
                assert trace.changed_nodes(r) == expected
                assert record.metrics.outputs_changed == len(expected)

    def test_activity_probe_and_output_activity_metric(self):
        spec = ScenarioSpec(
            n=20,
            algorithm="scolor",
            adversary=component("flip-churn", flip_prob=0.05),
            rounds=18,
            probe="activity",
            metrics=(component("output-activity"),),
        )
        result = run_scenario(spec.replace(seeds=(0,)))
        row = result.rows[0]
        assert row["activity_rounds"] == 18.0
        assert row["mean_active"] >= 0.0
        assert row["max_active"] <= 20.0
        assert 0.0 <= row["active_node_round_fraction"] <= 1.0
        assert row["mean_topology_churn"] >= 0.0
        # output-activity totals are exactly the summed outputs_changed metric.
        _, sim = _trace_rows(spec.replace(probe=None), seed=0, mode="incremental")
        expected_total = sum(
            sim.trace.metrics(r).outputs_changed for r in sim.trace.rounds()
        )
        assert row["total_changed_outputs"] == float(expected_total)

    def test_algorithm_contract_surfaced_in_docs(self):
        docs = available("algorithms", docs=True)
        assert "[delivery: pure]" in docs["dcolor"]
        assert "[delivery: pure]" in docs["smis"]
        assert "[delivery: none]" in docs["dynamic-coloring"]
        assert "[delivery: none]" in docs["restart-mis"]
        for name, doc in docs.items():
            assert "[delivery: " in doc, f"{name} doc lacks its contract annotation"
        # Array-kernel eligibility is surfaced per algorithm: the tag follows
        # what the built instance's ``as_kernel()`` returns, so an ablation
        # that its base kernel accepts carries it and one it declines
        # (``dcolor-current-graph``) does not.
        for name in _KERNEL_TAGGED:
            assert "[kernel: array]" in docs[name], f"{name} lacks its kernel tag"
        for name, doc in docs.items():
            if name not in _KERNEL_TAGGED:
                assert "[kernel: array]" not in doc, f"{name} wrongly tagged kernel"


# ---------------------------------------------------------------------------
# satellites: topology cache + exec phase stats
# ---------------------------------------------------------------------------


class TestTopologyCache:
    def test_same_inputs_share_one_topology(self):
        from repro.exec import topology_cache_clear, topology_cache_info

        topology_cache_clear()
        spec = ScenarioSpec(n=20, algorithm="scolor", topology="gnp_sparse", rounds=2)
        first = _build_context(spec, 3).base
        info = topology_cache_info()
        assert info["misses"] >= 1
        # Same seed + same topology inputs (different algorithm/adversary):
        # the very same immutable object comes back.
        other = spec.replace(algorithm=component("smis"), adversary=component("flip-churn"))
        assert _build_context(other, 3).base is first
        assert topology_cache_info()["hits"] >= 1
        # A different seed is a different random topology: no false sharing.
        assert _build_context(spec, 4).base is not first
        topology_cache_clear()

    def test_cached_topologies_match_direct_generation(self):
        from repro.exec import cached_base_topology, topology_cache_clear
        from repro.scenarios.registry import TOPOLOGIES
        from repro.utils.rng import spawn_generator

        topology_cache_clear()
        for seed in (0, 1, 5):
            direct = TOPOLOGIES.get("gnp_degree")(
                24, spawn_generator(seed, "topology", "gnp_degree", 24), degree=4.6
            )
            for _ in range(2):  # second call exercises the hit path
                cached = cached_base_topology("gnp_degree", {"degree": 4.6}, 24, seed)
                assert cached == direct
        topology_cache_clear()

    def test_scenario_rows_unaffected_by_cache_state(self):
        from repro.exec import topology_cache_clear

        spec = ScenarioSpec(
            n=16,
            algorithm="dcolor",
            adversary=component("flip-churn", flip_prob=0.1),
            rounds=10,
            metrics=("stability",),
            seeds=(0, 1),
        )
        topology_cache_clear()
        cold = run_scenario(spec).rows
        warm = run_scenario(spec).rows
        assert cold == warm
        topology_cache_clear()


class TestExecStats:
    def test_phases_recorded_for_serial_run(self):
        from repro.exec import collect_stats
        from repro.exec.stats import EXEC_DISPATCH, UNIT_ROUNDS, UNIT_SETUP

        spec = ScenarioSpec(
            n=16,
            algorithm="scolor",
            adversary=component("flip-churn", flip_prob=0.05),
            rounds=10,
            metrics=("trace-summary",),
            seeds=(0, 1, 2),
        )
        with collect_stats() as stats:
            result = run_scenario(spec)
        assert len(result.rows) == 3
        assert stats.events(UNIT_SETUP) == 3
        assert stats.events(UNIT_ROUNDS) == 3
        assert stats.seconds(UNIT_ROUNDS) > 0.0
        assert stats.seconds(EXEC_DISPATCH) >= stats.seconds(UNIT_ROUNDS)
        snapshot = stats.phase_totals()
        assert UNIT_SETUP in snapshot and UNIT_ROUNDS in snapshot

    def test_reporting_is_noop_without_collector(self):
        from repro.exec import record_phase, timed_phase

        record_phase("nobody-listening", 1.0)  # must not raise
        with timed_phase("nobody-listening"):
            pass

    def test_collectors_nest(self):
        from repro.exec import collect_stats, record_phase

        with collect_stats() as outer:
            record_phase("x", 1.0)
            with collect_stats() as inner:
                record_phase("x", 2.0)
            record_phase("x", 0.5)
        assert inner.seconds("x") == 2.0
        assert outer.seconds("x") == 1.5


# ---------------------------------------------------------------------------
# engine internals worth pinning down
# ---------------------------------------------------------------------------


class TestEngineInternals:
    def test_message_size_metrics_track_shrinking_messages(self):
        """The cached-bits histogram must follow max downwards, not just up."""

        class ShrinkingMessages(DistributedAlgorithm):
            name = "shrinking"
            message_stability = "pure"

            def __init__(self):
                super().__init__()
                self._big = {}

            def on_wake(self, v):
                self._big[v] = True

            def compose(self, v):
                return ("x" * 40) if self._big[v] else None

            def compose_fingerprint(self, v):
                return self._big[v]

            def deliver(self, v, inbox):
                if inbox:  # any neighbourhood change flips the node to small
                    self._big[v] = False

            def output(self, v):
                return 0 if self._big[v] else 1

        base = generators.ring(8)
        script = [base]

        from repro.dynamics.topology import EMPTY_DELTA, TopologyDelta
        from repro.dynamics.adversary import Adversary, FULLY_OBLIVIOUS

        class Script(Adversary):
            obliviousness = FULLY_OBLIVIOUS

            def step(self, view):
                if view.round_index == 1:
                    return TopologyDelta(added_nodes=base.nodes, added_edges=base.edges)
                if view.round_index == 2:
                    return TopologyDelta(removed_edges=[(0, 1)])
                return EMPTY_DELTA

        sim = Simulator(
            n=8, algorithm=ShrinkingMessages(), adversary=Script(), delivery="incremental"
        )
        trace = sim.run(4)
        sim_full = Simulator(
            n=8, algorithm=ShrinkingMessages(), adversary=Script(), delivery="full"
        )
        trace_full = sim_full.run(4)
        for r in range(1, 5):
            assert trace.metrics(r).as_dict() == trace_full.metrics(r).as_dict()
        # Round 1 delivered the ring inboxes: everyone flipped small, so the
        # max message size must have come down with them.
        assert trace.metrics(4).max_message_bits < trace.metrics(1).max_message_bits

    def test_incremental_survives_stop_and_resume_run_calls(self):
        spec = ScenarioSpec(
            n=16,
            algorithm="smis",
            adversary=component("flip-churn", flip_prob=0.1),
            rounds=16,
        )
        ctx = _build_context(spec, 9)
        sim = Simulator(
            n=ctx.n,
            algorithm=ctx.algorithm,
            adversary=ctx.adversary,
            seed=9,
            delivery="incremental",
        )
        for _ in range(16):  # one round per run() call, like probe loops
            sim.run(1)
        chunked = [
            (r, dict(sim.trace.outputs(r)), sim.trace.metrics(r).as_dict())
            for r in sim.trace.rounds()
        ]
        full_rows, _ = _trace_rows(spec, seed=9, mode="full")
        assert chunked == [(r[0], r[3], r[4]) for r in full_rows]

    def test_mean_activity_is_sparse_under_light_churn(self):
        """The point of the PR: touched nodes per round ≪ n once converged."""
        spec = ScenarioSpec(
            n=400,
            algorithm="smis",
            adversary=component("markov-churn", p_off=0.002, p_on=0.002),
            topology="gnp_sparse",
            rounds=60,
        )
        ctx = _build_context(spec, 1)
        sim = Simulator(
            n=ctx.n,
            algorithm=ctx.algorithm,
            adversary=ctx.adversary,
            seed=1,
            delivery="incremental",
        )
        active = []
        for _ in range(60):
            sim.run(1)
            active.append(sim.last_round_activity.num_active)
        tail = active[30:]
        assert sum(tail) / len(tail) < 0.25 * 400
