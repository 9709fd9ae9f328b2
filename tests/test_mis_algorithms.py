"""Tests of the MIS algorithms (Algorithms 4, 5, Ghaffari, combined, baselines)."""

import pytest

from repro.dynamics import generators
from repro.dynamics.adversaries import ChurnAdversary, ScriptedAdversary, StaticAdversary
from repro.dynamics.churn import FlipChurn
from repro.dynamics.topology import Topology
from repro.problems import DominatingSetProblem, IndependentSetProblem, mis_problem_pair
from repro.runtime.simulator import Simulator, run_simulation
from repro.utils.rng import RngFactory
from repro.core import default_window, verify_never_retracts, verify_t_dynamic
from repro.algorithms.mis import (
    DMis,
    DynamicMIS,
    GhaffariMIS,
    RestartMis,
    SMis,
    SMisNoUndecideAblation,
    dynamic_mis,
    greedy_mis,
)
from repro.analysis.convergence import rounds_to_completion
from helpers import array_violations_on, mis_vector


def mis_members(assignment):
    return {v for v, value in assignment.items() if value == 1}


def is_mis(graph, members):
    return not array_violations_on(mis_problem_pair(), graph, mis_vector(graph, members))


class TestGreedyMis:
    def test_produces_mis(self, medium_gnp):
        assert is_mis(medium_gnp, greedy_mis(medium_gnp))

    def test_custom_order(self, path4):
        assert greedy_mis(path4, order=[1, 3, 0, 2]) == frozenset({1, 3})

    def test_empty_graph(self):
        assert greedy_mis(generators.empty(5)) == frozenset(range(5))


class TestLubyAndGhaffari:
    @pytest.mark.parametrize("factory", [DMis, GhaffariMIS])
    def test_computes_mis_on_static_graph(self, factory, medium_gnp):
        n = medium_gnp.num_nodes
        trace = run_simulation(
            n=n, algorithm=factory(), adversary=StaticAdversary(medium_gnp), rounds=80, seed=1
        )
        final = trace.outputs(trace.num_rounds)
        assert all(value is not None for value in final.values())
        assert is_mis(medium_gnp, mis_members(final))

    def test_luby_completion_within_window(self, medium_gnp):
        n = medium_gnp.num_nodes
        trace = run_simulation(
            n=n, algorithm=DMis(), adversary=StaticAdversary(medium_gnp), rounds=80, seed=2
        )
        done = rounds_to_completion(trace)
        assert done is not None and done <= default_window(n)


class TestDMis:
    def test_input_extension_and_monotonicity(self, medium_gnp):
        n = medium_gnp.num_nodes
        # Input: node 0 in the MIS, its neighbours dominated (a valid partial solution).
        seed_member = 0
        input_assignment = {seed_member: 1}
        for u in medium_gnp.neighbors(seed_member):
            input_assignment[u] = 0
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.03), RngFactory(3).stream("adv"))
        trace = run_simulation(
            n=n,
            algorithm=DMis(),
            adversary=adversary,
            rounds=50,
            seed=3,
            input_assignment=input_assignment,
        )
        assert verify_never_retracts(trace) == []
        final = trace.outputs(trace.num_rounds)
        for v, value in input_assignment.items():
            assert final[v] == value

    def test_all_decided_within_window_under_churn(self, medium_gnp):
        n = medium_gnp.num_nodes
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.03), RngFactory(4).stream("adv"))
        trace = run_simulation(n=n, algorithm=DMis(), adversary=adversary, rounds=default_window(n), seed=4)
        final = trace.outputs(trace.num_rounds)
        assert all(value is not None for value in final.values())

    def test_independence_on_intersection_graph(self, medium_gnp):
        n = medium_gnp.num_nodes
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.08), RngFactory(5).stream("adv"))
        trace = run_simulation(n=n, algorithm=DMis(), adversary=adversary, rounds=40, seed=5)
        final = trace.outputs(trace.num_rounds)
        intersection = trace.graph.intersection_graph(trace.num_rounds, trace.num_rounds)
        assert array_violations_on(IndependentSetProblem(), intersection, final, partial=True) == []

    def test_domination_on_union_graph(self, medium_gnp):
        n = medium_gnp.num_nodes
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.03), RngFactory(6).stream("adv"))
        trace = run_simulation(n=n, algorithm=DMis(), adversary=adversary, rounds=60, seed=6)
        final = trace.outputs(trace.num_rounds)
        union = trace.graph.union_graph(trace.num_rounds, trace.num_rounds)
        assert array_violations_on(DominatingSetProblem(), union, final, partial=True) == []

    def test_static_equivalence_with_luby(self, medium_gnp):
        """On a static graph DMis's output is a correct MIS (it *is* pipelined Luby)."""
        n = medium_gnp.num_nodes
        trace = run_simulation(n=n, algorithm=DMis(), adversary=StaticAdversary(medium_gnp), rounds=60, seed=7)
        final = trace.outputs(trace.num_rounds)
        assert is_mis(medium_gnp, mis_members(final))

    def test_undecided_count_metric(self, small_gnp):
        n = small_gnp.num_nodes
        algorithm = DMis()
        sim = Simulator(n=n, algorithm=algorithm, adversary=StaticAdversary(small_gnp), seed=8)
        sim.run(1)
        assert 0 <= algorithm.undecided_count() <= n
        sim.run(default_window(n))
        assert algorithm.undecided_count() == 0


class TestSMis:
    def test_independence_always_holds_on_current_graph(self, medium_gnp):
        n = medium_gnp.num_nodes
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.05), RngFactory(9).stream("adv"))
        trace = run_simulation(n=n, algorithm=SMis(), adversary=adversary, rounds=60, seed=9)
        for r in trace.rounds():
            outputs = trace.outputs(r)
            assert array_violations_on(
                IndependentSetProblem(), trace.topology(r), outputs, partial=True
            ) == []

    def test_decides_static_graph_and_stays(self, medium_gnp):
        n = medium_gnp.num_nodes
        trace = run_simulation(n=n, algorithm=SMis(), adversary=StaticAdversary(medium_gnp), rounds=80, seed=10)
        done = rounds_to_completion(trace)
        assert done is not None
        final = trace.outputs(trace.num_rounds)
        assert is_mis(medium_gnp, mis_members(final))
        # No output changes after the decision round.
        for r in range(done + 1, trace.num_rounds + 1):
            assert trace.outputs(r) == final

    def test_mis_nodes_leave_on_conflict_edge(self):
        apart = Topology([0, 1], [])
        joined = Topology([0, 1], [(0, 1)])
        adversary = ScriptedAdversary([apart] * 4 + [joined] * 10)
        trace = run_simulation(n=2, algorithm=SMis(), adversary=adversary, rounds=14, seed=11)
        assert trace.outputs(4) == {0: 1, 1: 1}  # both isolated nodes join the MIS
        after = trace.outputs(5)
        assert after[0] is None and after[1] is None  # both receive marks and leave
        final = trace.outputs(14)
        assert sorted(final.values()) == [0, 1]  # resolved into one MIS node + one dominated

    def test_dominated_node_undecides_when_dominator_vanishes(self):
        pair_graph = Topology([0, 1], [(0, 1)])
        apart = Topology([0, 1], [])
        adversary = ScriptedAdversary([pair_graph] * 8 + [apart] * 3)
        trace = run_simulation(n=2, algorithm=SMis(), adversary=adversary, rounds=11, seed=12)
        decided = trace.outputs(8)
        assert sorted(decided.values()) == [0, 1]
        dominated_node = next(v for v, value in decided.items() if value == 0)
        # Once isolated, the dominated node loses its dominator and becomes undecided,
        # then (being isolated) joins the MIS.
        final = trace.outputs(11)
        assert final[dominated_node] == 1

    def test_desire_levels_bounded(self, small_gnp):
        n = small_gnp.num_nodes
        algorithm = SMis()
        adversary = ChurnAdversary(n, FlipChurn(small_gnp, 0.1), RngFactory(13).stream("adv"))
        sim = Simulator(n=n, algorithm=algorithm, adversary=adversary, seed=13)
        for _ in range(20):
            sim.run(1)
            for v in range(n):
                assert 1.0 / (5 * n) <= algorithm.desire_level_of(v) <= 0.5

    def test_no_undecide_ablation_keeps_adjacent_mis_nodes(self):
        apart = Topology([0, 1], [])
        joined = Topology([0, 1], [(0, 1)])
        adversary = ScriptedAdversary([apart] * 4 + [joined] * 4)
        trace = run_simulation(n=2, algorithm=SMisNoUndecideAblation(), adversary=adversary, rounds=8, seed=14)
        final = trace.outputs(8)
        assert final == {0: 1, 1: 1}  # the violation is never repaired


class TestDynamicMIS:
    def test_t_dynamic_validity_mostly_holds_under_churn(self, medium_gnp):
        n = medium_gnp.num_nodes
        T1 = default_window(n)
        adversary = ChurnAdversary(n, FlipChurn(medium_gnp, 0.02), RngFactory(15).stream("adv"))
        trace = run_simulation(n=n, algorithm=DynamicMIS(T1), adversary=adversary, rounds=3 * T1, seed=15)
        violations = verify_t_dynamic(trace, mis_problem_pair(), T1)
        # The strict per-round check admits rare transient domination holes
        # (see README.md, observed deviation for MIS); the overwhelming
        # majority of rounds must be valid.
        assert len(violations) <= 0.1 * trace.num_rounds

    def test_perfect_on_static_graph(self, small_gnp):
        n = small_gnp.num_nodes
        T1 = default_window(n)
        trace = run_simulation(
            n=n, algorithm=DynamicMIS(T1), adversary=StaticAdversary(small_gnp), rounds=3 * T1, seed=16
        )
        assert verify_t_dynamic(trace, mis_problem_pair(), T1) == []
        final = trace.outputs(trace.num_rounds)
        assert is_mis(small_gnp, mis_members(final))

    def test_stable_on_static_graph(self, small_gnp):
        n = small_gnp.num_nodes
        T1 = default_window(n)
        trace = run_simulation(
            n=n, algorithm=DynamicMIS(T1), adversary=StaticAdversary(small_gnp), rounds=4 * T1, seed=17
        )
        grace = 2 * T1
        for v in range(n):
            values = {trace.output_of(v, r) for r in range(grace + 1, trace.num_rounds + 1)}
            assert len(values) == 1 and None not in values

    def test_factory(self):
        assert dynamic_mis(300).T1 == default_window(300)
        assert dynamic_mis(300, window=11).T1 == 11


class TestRestartMisBaseline:
    def test_period_validated(self):
        with pytest.raises(Exception):
            RestartMis(0)

    def test_restart_wipes_outputs(self, small_gnp):
        n = small_gnp.num_nodes
        algorithm = RestartMis(6)
        trace = run_simulation(n=n, algorithm=algorithm, adversary=StaticAdversary(small_gnp), rounds=40, seed=18)
        assert len(verify_never_retracts(trace)) > 0
        assert algorithm.metrics()["restarts"] > 0
        assert algorithm.period == 6
