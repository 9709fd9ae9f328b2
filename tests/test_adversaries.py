"""Unit tests for the adversary framework and the concrete adversaries."""

import pytest

from repro.errors import AdversaryError, ConfigurationError
from repro.dynamics import generators
from repro.dynamics.adversary import ADAPTIVE_OFFLINE, AdversaryView, FULLY_OBLIVIOUS
from repro.dynamics.adversaries import (
    ChurnAdversary,
    FreezeAfterAdversary,
    LocallyStaticAdversary,
    ScriptedAdversary,
    StaticAdversary,
    TargetedColoringAdversary,
    TargetedMisAdversary,
)
from repro.dynamics.churn import FlipChurn, StaticChurn
from repro.dynamics.topology import EMPTY_DELTA, Topology, TopologyDelta, empty_topology
from repro.dynamics.wakeup import StaggeredWakeup
from repro.algorithms.coloring import BasicColoring
from repro.runtime.metrics import RoundMetrics
from repro.runtime.simulator import Simulator
from repro.runtime.trace import ExecutionTrace


def make_view(round_index, outputs=(), previous=None, obliviousness=FULLY_OBLIVIOUS, state=None):
    return AdversaryView(
        n=10,
        round_index=round_index,
        obliviousness=obliviousness,
        previous=previous if previous is not None else empty_topology(),
        outputs=tuple(outputs),
        state_provider=state,
    )


def replay(adversary, rounds, outputs=(), obliviousness=FULLY_OBLIVIOUS):
    """Step ``adversary`` through rounds ``1 … rounds`` and return ``[G_1, …]``.

    Round ``r`` sees the outputs of rounds ``1 … r-1`` (``outputs[:r-1]``,
    filtered by ``obliviousness``) and ``G_{r-1}``; each emitted delta is
    applied to the previous round's graph.
    """
    graphs = [empty_topology()]
    for r in range(1, rounds + 1):
        view = make_view(
            r, outputs=outputs[: r - 1], previous=graphs[-1], obliviousness=obliviousness
        )
        graphs.append(graphs[-1].apply(adversary.step(view)))
    return graphs[1:]


class TestAdversaryView:
    def test_oblivious_view_hides_recent_outputs(self):
        outputs = [{0: r} for r in range(1, 6)]
        view = make_view(6, outputs=outputs, obliviousness=2)
        assert view.visible_rounds() == 4
        assert view.latest_visible_outputs() == {0: 4}

    def test_adaptive_view_sees_previous_round(self):
        outputs = [{0: 1}, {0: 2}]
        view = make_view(3, outputs=outputs, obliviousness=ADAPTIVE_OFFLINE)
        assert view.latest_visible_outputs() == {0: 2}

    def test_fully_oblivious_sees_nothing(self):
        outputs = [{0: 1}, {0: 2}]
        view = make_view(3, outputs=outputs, obliviousness=FULLY_OBLIVIOUS)
        assert view.latest_visible_outputs() is None

    def test_state_access_requires_adaptive(self):
        view = make_view(2, obliviousness=2, state=lambda: "secret")
        with pytest.raises(AdversaryError):
            view.algorithm_state()

    def test_state_access_requires_provider(self):
        view = make_view(2, obliviousness=ADAPTIVE_OFFLINE)
        with pytest.raises(AdversaryError):
            view.algorithm_state()

    def test_state_access_adaptive(self):
        view = make_view(2, obliviousness=ADAPTIVE_OFFLINE, state=lambda: {"x": 1})
        assert view.algorithm_state() == {"x": 1}

    def test_previous_topology(self):
        topo = Topology([0, 1], [(0, 1)])
        view = make_view(2, previous=topo)
        assert view.previous_topology() == topo
        assert make_view(1).previous_topology() == empty_topology()  # G_0

    def test_visible_rounds_are_capped_by_the_recorded_ones(self):
        view = make_view(10, outputs=[{0: 1}, {0: 2}, {0: 3}], obliviousness=1)
        assert view.visible_rounds() == 3
        assert view.latest_visible_outputs() == {0: 3}

    def test_output_history_holds_the_trace_vectors(self):
        trace = ExecutionTrace(4, "alg", "adv")
        vectors = [{0: r} for r in range(1, 4)]
        for r, outputs in enumerate(vectors, start=1):
            delta = TopologyDelta(added_nodes=[0]) if r == 1 else EMPTY_DELTA
            trace.record(delta, outputs, RoundMetrics(r, 1, 0, 1, 0, 0, 0, 0), frozenset())
        view = AdversaryView(
            n=4,
            round_index=4,
            obliviousness=2,
            previous=trace.topology(3),
            outputs=trace.output_vectors,
        )
        history = view.output_history()
        assert len(history) == 2
        assert history[0] is vectors[0] and history[1] is vectors[1]
        assert view.latest_visible_outputs() is vectors[1]


class _SpyingColoringAdversary(TargetedColoringAdversary):
    """The targeted colouring attack at a chosen ρ, keeping every view it is handed."""

    def __init__(self, *args, obliviousness, **kwargs):
        super().__init__(*args, **kwargs)
        self.obliviousness = obliviousness
        self.seen = []

    def step(self, view):
        self.seen.append(
            (view.round_index, view.visible_rounds(), view.latest_visible_outputs(), view.previous_topology())
        )
        return super().step(view)


class TestSimulatorView:
    """The view a real run hands the adversary reads the trace and copies nothing."""

    @pytest.mark.parametrize("obliviousness", [1, 2])
    @pytest.mark.parametrize("delivery", ["full", "incremental"])
    def test_view_is_read_from_the_trace(self, rng_factory, delivery, obliviousness):
        base = generators.gnp(16, 0.25, rng_factory.stream("view-base"))
        adversary = _SpyingColoringAdversary(
            base,
            attacks_per_round=2,
            lifetime=2,
            rng=rng_factory.stream("view-attacks"),
            obliviousness=obliviousness,
        )
        sim = Simulator(n=16, algorithm=BasicColoring(), adversary=adversary, seed=3, delivery=delivery)
        trace = sim.run(8)
        assert sim.delivery == delivery
        assert [r for r, *_ in adversary.seen] == list(range(1, 9))
        for r, visible, outputs, previous in adversary.seen:
            assert visible == max(0, r - obliviousness)
            if visible:
                # the trace's own vector, not a copy the simulator keeps beside it
                assert outputs is trace.outputs(r - obliviousness)
            else:
                assert outputs is None
            assert previous == trace.topology(r - 1)
        assert adversary.attack_log  # the attacks were chosen from those outputs


class TestScriptedAndStatic:
    def test_scripted_replays(self):
        topologies = [Topology([0, 1], [(0, 1)]), Topology([0, 1], [])]
        adversary = ScriptedAdversary(topologies)
        graphs = replay(adversary, 5)
        assert graphs == [topologies[0]] + [topologies[1]] * 4  # repeat_last
        assert adversary.step(make_view(5)) is EMPTY_DELTA

    def test_scripted_exhaustion_raises_without_repeat(self):
        adversary = ScriptedAdversary([Topology([0], [])], repeat_last=False)
        with pytest.raises(AdversaryError):
            adversary.step(make_view(2))

    def test_scripted_needs_topologies(self):
        with pytest.raises(AdversaryError):
            ScriptedAdversary([])

    def test_static_with_wakeup(self):
        base = generators.path(4)
        adversary = StaticAdversary(base, wakeup=StaggeredWakeup(4, batch_size=2))
        graphs = replay(adversary, 5)
        assert graphs[0] == base.subgraph({0, 1})
        assert graphs[1] == graphs[4] == base

    def test_static_staggered_wakeup_adds_only_the_woken_nodes(self):
        base = generators.ring(6)
        schedule = StaggeredWakeup(6, batch_size=2, interval=2)
        adversary = StaticAdversary(base, wakeup=schedule)
        previous = empty_topology()
        for r in range(1, 9):  # nodes wake in rounds 1, 3 and 5
            delta = adversary.step(make_view(r, previous=previous))
            woken = schedule.awake_at(r) - previous.nodes
            awake = previous.nodes | woken
            if not woken:
                assert delta is EMPTY_DELTA, f"round {r}"
            else:
                expected = {e for e in base.edges if set(e) & woken and set(e) <= awake}
                assert delta == TopologyDelta(added_nodes=woken, added_edges=expected), f"round {r}"
            previous = previous.apply(delta)
        assert previous == base


class TestChurnAdversary:
    def test_respects_wakeup_monotonicity(self, rng_factory):
        base = generators.ring(6)
        adversary = ChurnAdversary(
            6,
            StaticChurn(base),
            rng_factory.stream("adv"),
            wakeup=StaggeredWakeup(6, batch_size=2),
        )
        previous_nodes = frozenset()
        for topo in replay(adversary, 5):
            assert previous_nodes <= topo.nodes
            previous_nodes = topo.nodes

    def test_edges_only_between_awake_nodes(self, rng_factory):
        base = generators.clique(6)
        adversary = ChurnAdversary(
            6, FlipChurn(base, 0.2), rng_factory.stream("adv2"), wakeup=StaggeredWakeup(6, batch_size=3)
        )
        (topo,) = replay(adversary, 1)
        for u, v in topo.edges:
            assert u in topo.nodes and v in topo.nodes
        assert topo.nodes == frozenset({0, 1, 2})


class TestLocallyStaticAdversary:
    def test_protected_ball_edges_never_change(self, rng_factory):
        base = generators.gnp(30, 0.15, rng_factory.stream("ls-base"))
        center = max(base.nodes, key=base.degree)
        adversary = LocallyStaticAdversary(
            base, center=center, protected_radius=2, churn=FlipChurn(base, 0.5), rng=rng_factory.stream("ls")
        )
        protected = adversary.protected_nodes
        reference = None
        for topo in replay(adversary, 14):
            incident = frozenset(e for e in topo.edges if e[0] in protected or e[1] in protected)
            if reference is None:
                reference = incident
            assert incident == reference

    def test_invalid_center_rejected(self, rng_factory):
        base = generators.path(4)
        with pytest.raises(ConfigurationError):
            LocallyStaticAdversary(base, center=99, protected_radius=1, churn=StaticChurn(base), rng=rng_factory.stream("x"))


def _targeted(kind, base, rng, **params):
    if kind == "coloring":
        return TargetedColoringAdversary(base, rng=rng, **params)
    return TargetedMisAdversary(base, mode="join_mis", rng=rng, **params)


class TestTargetedAdversaries:
    def test_coloring_adversary_inserts_monochromatic_edges(self, rng_factory):
        base = generators.empty(6)
        adversary = TargetedColoringAdversary(base, attacks_per_round=2, lifetime=3, rng=rng_factory.stream("t"))
        outputs = [{v: 1 for v in range(6)}]  # everyone has colour 1
        topo = replay(adversary, 2, outputs=outputs, obliviousness=1)[-1]
        assert topo.num_edges >= 1
        assert adversary.attack_log
        for _, (u, v) in adversary.attack_log:
            assert outputs[0][u] == outputs[0][v]

    def test_coloring_adversary_without_outputs_keeps_base(self, rng_factory):
        base = generators.ring(5)
        adversary = TargetedColoringAdversary(base, attacks_per_round=2, lifetime=2, rng=rng_factory.stream("t2"))
        (topo,) = replay(adversary, 1, obliviousness=1)
        assert topo.edges == base.edges

    def test_mis_adversary_cut_mode(self, rng_factory):
        base = generators.star(5)
        adversary = TargetedMisAdversary(
            base, mode="cut_notification", attacks_per_round=3, rng=rng_factory.stream("t3")
        )
        outputs = [{0: 1, 1: None, 2: None, 3: None, 4: None}]
        topo = replay(adversary, 2, outputs=outputs, obliviousness=1)[-1]
        # All notification edges from the fresh MIS node 0 to undecided leaves are cut candidates.
        assert topo.num_edges < base.num_edges
        assert all(action == "cut" for _, action, _ in adversary.attack_log)

    def test_mis_adversary_join_mode(self, rng_factory):
        base = generators.empty(6)
        adversary = TargetedMisAdversary(base, mode="join_mis", attacks_per_round=2, rng=rng_factory.stream("t4"))
        outputs = [{v: 1 for v in range(6)}]
        topo = replay(adversary, 2, outputs=outputs, obliviousness=1)[-1]
        assert topo.num_edges >= 1

    def test_mis_adversary_invalid_mode(self, rng_factory):
        with pytest.raises(ConfigurationError):
            TargetedMisAdversary(generators.empty(3), mode="bogus", attacks_per_round=1, rng=rng_factory.stream("x"))

    @pytest.mark.parametrize("kind", ["coloring", "mis"])
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("attacks_per_round", -1, "attacks_per_round must be >= 0"),  # was clamped to 0
            ("attacks_per_round", 1.5, "attacks_per_round must be an integer"),  # was truncated to 1
            ("lifetime", 0, "lifetime must be >= 1"),  # was clamped to 1
        ],
        ids=["attacks_per_round=-1", "attacks_per_round=1.5", "lifetime=0"],
    )
    def test_bad_values_are_rejected_not_clamped(self, rng_factory, kind, key, value, message):
        params = {"attacks_per_round": 1, "lifetime": 2, key: value}
        with pytest.raises(ConfigurationError, match=message):
            _targeted(kind, generators.empty(3), rng_factory.stream("x"), **params)

    @pytest.mark.parametrize("kind", ["coloring", "mis"])
    def test_zero_attacks_keep_the_base_topology(self, rng_factory, kind):
        base = generators.ring(6)
        adversary = _targeted(kind, base, rng_factory.stream("t0"), attacks_per_round=0, lifetime=1)
        outputs = [{v: 1 for v in range(6)}]
        topo = replay(adversary, 2, outputs=outputs, obliviousness=1)[-1]
        assert topo.edges == base.edges
        assert not adversary.attack_log


class TestCompositeAdversaries:
    def test_freeze_after(self, rng_factory):
        base = generators.gnp(12, 0.3, rng_factory.stream("fa"))
        inner = ChurnAdversary(12, FlipChurn(base, 0.5), rng_factory.stream("fa2"))
        adversary = FreezeAfterAdversary(inner, freeze_round=3)
        topologies = replay(adversary, 7)
        assert topologies[0] != topologies[1]  # the inner churn still moves
        assert topologies[1] == topologies[2] == topologies[6]  # frozen from round 3 on
        assert adversary.step(make_view(8, previous=topologies[-1])) is EMPTY_DELTA

    def test_freeze_after_validation(self):
        with pytest.raises(ConfigurationError):
            FreezeAfterAdversary(StaticAdversary(Topology([0], [])), freeze_round=0)
