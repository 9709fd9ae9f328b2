"""Tests of the colouring algorithms (Algorithms 2, 3, 6 and the combined algorithm)."""

import pytest

from repro.dynamics import generators
from repro.dynamics.adversaries import ChurnAdversary, ScriptedAdversary, StaticAdversary, TargetedColoringAdversary
from repro.dynamics.churn import FlipChurn
from repro.dynamics.topology import Topology
from repro.problems import ProperColoringProblem, coloring_problem_pair
from repro.runtime.simulator import run_simulation
from repro.utils.rng import RngFactory
from repro.core import default_window, verify_never_retracts, verify_partial_solution_every_round, verify_t_dynamic
from repro.algorithms.coloring import (
    BasicColoring,
    DColor,
    DynamicColoring,
    RestartColoring,
    SColor,
    SColorNoUncolorAblation,
    dynamic_coloring,
    greedy_coloring,
)
from repro.algorithms.coloring.dcolor import FIXED, INIT, TENTATIVE
from repro.analysis.convergence import rounds_to_completion
from helpers import array_violations_on


class TestGreedyColoring:
    def test_valid_and_within_degree_bound(self, medium_gnp):
        colors = greedy_coloring(medium_gnp)
        assert not array_violations_on(ProperColoringProblem(), medium_gnp, colors)
        for v, c in colors.items():
            assert 1 <= c <= medium_gnp.degree(v) + 1

    def test_respects_precoloring(self, path4):
        colors = greedy_coloring(path4, precolored={0: 2})
        assert colors[0] == 2 and not array_violations_on(ProperColoringProblem(), path4, colors)

    def test_conflicting_precoloring_rejected(self, path4):
        with pytest.raises(ValueError):
            greedy_coloring(path4, precolored={0: 1, 1: 1})

    def test_custom_order(self, path4):
        colors = greedy_coloring(path4, order=[3, 2, 1, 0])
        assert not array_violations_on(ProperColoringProblem(), path4, colors)


class TestBasicColoring:
    def test_colors_static_graph(self, medium_gnp):
        n = medium_gnp.num_nodes
        trace = run_simulation(
            n=n, algorithm=BasicColoring(), adversary=StaticAdversary(medium_gnp), rounds=60, seed=1
        )
        final = trace.outputs(trace.num_rounds)
        assert not array_violations_on(ProperColoringProblem(), medium_gnp, final)
        for v, c in final.items():
            assert 1 <= c <= medium_gnp.degree(v) + 1

    def test_never_uncolors(self, medium_gnp):
        trace = run_simulation(
            n=medium_gnp.num_nodes,
            algorithm=BasicColoring(),
            adversary=StaticAdversary(medium_gnp),
            rounds=40,
            seed=2,
        )
        assert verify_never_retracts(trace) == []

    def test_completion_time_reasonable(self, medium_gnp):
        trace = run_simulation(
            n=medium_gnp.num_nodes,
            algorithm=BasicColoring(),
            adversary=StaticAdversary(medium_gnp),
            rounds=80,
            seed=3,
        )
        done = rounds_to_completion(trace)
        assert done is not None and done <= default_window(medium_gnp.num_nodes)

    def test_honours_input_coloring(self, path4):
        trace = run_simulation(
            n=4,
            algorithm=BasicColoring(),
            adversary=StaticAdversary(path4),
            rounds=20,
            seed=4,
            input_assignment={0: 2, 1: 1},
        )
        final = trace.outputs(trace.num_rounds)
        assert final[0] == 2 and final[1] == 1
        assert not array_violations_on(ProperColoringProblem(), path4, final)

    def test_isolated_node_gets_color_one(self):
        topo = Topology([0], [])
        trace = run_simulation(n=1, algorithm=BasicColoring(), adversary=StaticAdversary(topo), rounds=3, seed=0)
        assert trace.outputs(3)[0] == 1


class TestSColor:
    def test_partial_solution_every_round_under_churn(self, medium_gnp):
        n = medium_gnp.num_nodes
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.05), RngFactory(7).stream("adv"))
        trace = run_simulation(n=n, algorithm=SColor(), adversary=adversary, rounds=60, seed=7)
        assert verify_partial_solution_every_round(trace, coloring_problem_pair()) == []

    def test_uncolors_on_conflict_edge(self):
        # Two isolated nodes colour themselves with colour 1; joining them by
        # an edge must clear (at least) one of the colours by the end of the round.
        apart = Topology([0, 1], [])
        joined = Topology([0, 1], [(0, 1)])
        adversary = ScriptedAdversary([apart, apart] + [joined] * 18)
        trace = run_simulation(n=2, algorithm=SColor(), adversary=adversary, rounds=20, seed=5)
        assert trace.outputs(2) == {0: 1, 1: 1}
        after = trace.outputs(3)
        assert not (after[0] == 1 and after[1] == 1)
        # Eventually (w.h.p. well within 17 further rounds) the pair is properly coloured again.
        final = trace.outputs(20)
        assert final[0] != final[1] and None not in final.values()

    def test_uncolors_when_degree_drops(self):
        star = generators.star(4)
        lonely = Topology(range(4), [])
        adversary = ScriptedAdversary([star] * 10 + [lonely] * 3)
        trace = run_simulation(n=4, algorithm=SColor(), adversary=adversary, rounds=13, seed=6)
        colored = trace.outputs(10)
        assert all(value is not None for value in colored.values())
        # After isolation every node's palette is {1}; anyone with a larger colour resets.
        final = trace.outputs(13)
        for v, value in final.items():
            assert value is None or value == 1

    def test_no_uncolor_ablation_keeps_conflicts(self):
        apart = Topology([0, 1], [])
        joined = Topology([0, 1], [(0, 1)])
        adversary = ScriptedAdversary([apart, apart, joined, joined])
        trace = run_simulation(n=2, algorithm=SColorNoUncolorAblation(), adversary=adversary, rounds=4, seed=5)
        final = trace.outputs(4)
        assert final[0] == 1 and final[1] == 1  # conflict persists
        assert len(verify_partial_solution_every_round(trace, coloring_problem_pair())) > 0

    def test_static_graph_behaves_like_basic(self, medium_gnp):
        n = medium_gnp.num_nodes
        trace = run_simulation(n=n, algorithm=SColor(), adversary=StaticAdversary(medium_gnp), rounds=60, seed=8)
        final = trace.outputs(trace.num_rounds)
        assert not array_violations_on(ProperColoringProblem(), medium_gnp, final)


class TestDColor:
    def test_extends_input_and_never_retracts(self, medium_gnp):
        n = medium_gnp.num_nodes
        input_colors = {0: 1, 1: 2}
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.03), RngFactory(9).stream("adv"))
        trace = run_simulation(
            n=n, algorithm=DColor(), adversary=adversary, rounds=50, seed=9, input_assignment=input_colors
        )
        assert verify_never_retracts(trace) == []
        final = trace.outputs(trace.num_rounds)
        assert final[0] == 1 and final[1] == 2

    def test_all_colored_within_window_under_churn(self, medium_gnp):
        n = medium_gnp.num_nodes
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.03), RngFactory(10).stream("adv"))
        trace = run_simulation(n=n, algorithm=DColor(), adversary=adversary, rounds=default_window(n), seed=10)
        final = trace.outputs(trace.num_rounds)
        assert all(value is not None for value in final.values())

    def test_packing_on_intersection_graph(self, medium_gnp):
        n = medium_gnp.num_nodes
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.05), RngFactory(11).stream("adv"))
        trace = run_simulation(n=n, algorithm=DColor(), adversary=adversary, rounds=40, seed=11)
        final = trace.outputs(trace.num_rounds)
        intersection = trace.graph.intersection_graph(trace.num_rounds, trace.num_rounds)
        assert not array_violations_on(ProperColoringProblem(), intersection, final, partial=True)

    def test_covering_bound_on_union_degree(self, medium_gnp):
        n = medium_gnp.num_nodes
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.05), RngFactory(12).stream("adv"))
        trace = run_simulation(n=n, algorithm=DColor(), adversary=adversary, rounds=40, seed=12)
        final = trace.outputs(trace.num_rounds)
        union = trace.graph.union_graph(trace.num_rounds, trace.num_rounds)
        for v, color in final.items():
            if color is not None and v in union.nodes:
                assert color <= union.degree(v) + 1

    def test_palette_only_shrinks(self, small_gnp):
        from repro.runtime.simulator import Simulator

        n = small_gnp.num_nodes
        algorithm = DColor()
        adversary = ChurnAdversary(n, FlipChurn(small_gnp, 0.05), RngFactory(13).stream("adv"))
        sim = Simulator(n=n, algorithm=algorithm, adversary=adversary, seed=13)
        sim.run(2)
        previous = {v: algorithm.palette_of(v) for v in range(n)}
        for _ in range(10):
            sim.run(1)
            for v in range(n):
                current = algorithm.palette_of(v)
                assert current <= previous[v]
                previous[v] = current


class _InboxCopyingDColor(DColor):
    """DColor with the deliver that copied the inbox into a ``relevant`` dict
    and tested tags by tuple membership: the reference for the lean one."""

    def deliver(self, v, inbox):
        if not self._started[v]:
            self._deliver_start(v, inbox)
            return

        live = self._live[v]
        assert live is not None
        if self._restrict:
            live = frozenset(live & inbox.keys())
            self._live[v] = live
            relevant = {u: inbox[u] for u in live}
        else:
            relevant = dict(inbox)

        fixed = set()
        tentative = set()
        for message in relevant.values():
            if not isinstance(message, tuple) or len(message) != 2:
                continue
            tag, value = message
            if tag in (FIXED, INIT) and value is not None:
                fixed.add(value)
            elif tag == TENTATIVE and value is not None:
                tentative.add(value)

        self._palette[v] -= fixed
        if self._color[v] is None:
            choice = self._tentative[v]
            if choice is not None and choice in self._palette[v] and choice not in tentative:
                self._color[v] = choice
                self._uncolored_count -= 1


def _dcolor_state_trace(algorithm, topology, adversary, rounds=12, seed=21):
    """Per round: every node's palette, live set and output, on the full path."""
    from repro.runtime.simulator import Simulator

    n = topology.num_nodes
    sim = Simulator(n=n, algorithm=algorithm, adversary=adversary, seed=seed, delivery="full")
    states = []
    for _ in range(rounds):
        sim.run(1)
        states.append(
            {
                v: (algorithm.palette_of(v), algorithm.live_neighbors_of(v), algorithm.output(v))
                for v in range(n)
            }
        )
    return states


class TestDColorDeliver:
    @pytest.mark.parametrize("restrict", [True, False])
    def test_matches_the_inbox_copying_reference_under_churn(self, small_gnp, restrict):
        def churn():
            n = small_gnp.num_nodes
            return ChurnAdversary(n, FlipChurn(small_gnp, 0.1), RngFactory(5).stream("adv"))

        lean = _dcolor_state_trace(DColor(restrict_to_intersection=restrict), small_gnp, churn())
        reference = _dcolor_state_trace(
            _InboxCopyingDColor(restrict_to_intersection=restrict), small_gnp, churn()
        )
        assert lean == reference

    def test_restriction_is_invisible_on_a_static_graph(self, small_gnp):
        """With no edge ever inserted or removed, the intersection graph is
        the current graph, so both switches read the same palettes and sets."""
        restricted = _dcolor_state_trace(
            DColor(restrict_to_intersection=True), small_gnp, StaticAdversary(small_gnp)
        )
        unrestricted = _dcolor_state_trace(
            DColor(restrict_to_intersection=False), small_gnp, StaticAdversary(small_gnp)
        )
        assert restricted == unrestricted


class TestDynamicColoring:
    def test_t_dynamic_under_churn(self, medium_gnp):
        n = medium_gnp.num_nodes
        T1 = default_window(n)
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.03), RngFactory(14).stream("adv"))
        trace = run_simulation(n=n, algorithm=DynamicColoring(T1), adversary=adversary, rounds=3 * T1, seed=14)
        assert verify_t_dynamic(trace, coloring_problem_pair(), T1) == []

    def test_t_dynamic_under_targeted_adversary(self, small_gnp):
        n = small_gnp.num_nodes
        T1 = default_window(n)
        adversary = TargetedColoringAdversary(
            small_gnp, attacks_per_round=2, lifetime=T1, rng=RngFactory(15).stream("adv")
        )
        trace = run_simulation(n=n, algorithm=DynamicColoring(T1), adversary=adversary, rounds=3 * T1, seed=15)
        assert verify_t_dynamic(trace, coloring_problem_pair(), T1) == []

    def test_stable_on_static_graph(self, small_gnp):
        n = small_gnp.num_nodes
        T1 = default_window(n)
        trace = run_simulation(
            n=n, algorithm=DynamicColoring(T1), adversary=StaticAdversary(small_gnp), rounds=4 * T1, seed=16
        )
        grace = 2 * T1
        for v in range(n):
            values = {trace.output_of(v, r) for r in range(grace + 1, trace.num_rounds + 1)}
            assert len(values) == 1 and None not in values

    def test_factory_uses_default_window(self):
        algorithm = dynamic_coloring(200)
        assert algorithm.T1 == default_window(200)
        assert dynamic_coloring(200, window=9).T1 == 9


class TestRestartColoringBaseline:
    def test_period_validated(self):
        with pytest.raises(Exception):
            RestartColoring(1)

    def test_restarts_cause_output_churn(self, small_gnp):
        n = small_gnp.num_nodes
        trace = run_simulation(
            n=n, algorithm=RestartColoring(6), adversary=StaticAdversary(small_gnp), rounds=40, seed=17
        )
        assert len(verify_never_retracts(trace)) > 0  # outputs get wiped

    def test_restart_metric_reported(self, small_gnp):
        n = small_gnp.num_nodes
        algorithm = RestartColoring(5)
        run_simulation(n=n, algorithm=algorithm, adversary=StaticAdversary(small_gnp), rounds=30, seed=18)
        assert algorithm.metrics()["restarts"] > 0
        assert algorithm.period == 5
