"""Tests of the T-dynamic solution checker (sliding-window feasibility)."""

import pytest

from repro.errors import ConfigurationError
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology
from repro.problems import TDynamicSpec, coloring_problem_pair, mis_problem_pair
from repro.runtime.metrics import RoundMetrics
from repro.runtime.trace import ExecutionTrace
from repro.scenarios import ScenarioSpec, component
from repro.core.properties import verify_partial_solution_every_round
from repro.scenarios.components import problem_pair_by_name
from repro.scenarios.registry import METRICS, STOP_CONDITIONS
from helpers import oracle_check_trace, record_graph, record_round, simulate, windows


def _metrics(r):
    return RoundMetrics(r, 0, 0, 0, 0, 0, 0, 0)


class TestCheckRound:
    def test_window_size_validated(self):
        with pytest.raises(ConfigurationError):
            TDynamicSpec(coloring_problem_pair(), 0)

    def test_early_rounds_unconstrained(self):
        """Per Definition 2.1, rounds r < T have an empty window (G_0 included)."""
        graph = DynamicGraph(3)
        record_graph(graph, Topology([0, 1], [(0, 1)]))
        spec = TDynamicSpec(coloring_problem_pair(), T=3)
        result = spec.check_round(graph, {0: None, 1: None}, 1)
        assert result.constrained_nodes == 0
        assert result.is_valid

    def test_packing_checked_on_intersection(self):
        graph = DynamicGraph(3)
        # Edge (0,1) present in round 1 only; (1,2) present in both.
        record_graph(graph, Topology([0, 1, 2], [(0, 1), (1, 2)]))
        record_graph(graph, Topology([0, 1, 2], [(1, 2)]))
        spec = TDynamicSpec(coloring_problem_pair(), T=2)
        # Same colour on 0 and 1 is fine (edge not in intersection), same on 1, 2 is not.
        ok = spec.check_round(graph, {0: 1, 1: 1, 2: 2}, 2)
        assert ok.is_valid
        bad = spec.check_round(graph, {0: 2, 1: 1, 2: 1}, 2)
        assert not bad.is_valid and set(bad.packing_violations) == {1, 2}

    def test_covering_checked_on_union(self):
        graph = DynamicGraph(3)
        record_graph(graph, Topology([0, 1, 2], [(0, 1), (0, 2)]))
        record_graph(graph, Topology([0, 1, 2], []))
        spec = TDynamicSpec(coloring_problem_pair(), T=2)
        # Node 0 has union degree 2, so colour 3 is allowed; colour 4 is not.
        assert spec.check_round(graph, {0: 3, 1: 1, 2: 1}, 2).is_valid
        result = spec.check_round(graph, {0: 4, 1: 1, 2: 1}, 2)
        assert result.covering_violations == (0,)

    def test_undecided_constrained_node_is_violation(self):
        graph = DynamicGraph(2)
        record_graph(graph, Topology([0, 1], [(0, 1)]))
        spec = TDynamicSpec(mis_problem_pair(), T=1)
        result = spec.check_round(graph, {0: 1, 1: None}, 1)
        assert result.undecided_nodes == (1,)
        assert not result.is_valid
        assert result.num_violations == 1

    def test_mis_pair_on_windows(self):
        graph = DynamicGraph(3)
        record_graph(graph, Topology([0, 1, 2], [(0, 1)]))
        record_graph(graph, Topology([0, 1, 2], [(1, 2)]))
        spec = TDynamicSpec(mis_problem_pair(), T=2)
        # 0 and 2 in the MIS, 1 dominated: intersection graph has no edges, so
        # independence is trivial; union graph gives node 1 a dominator.
        assert spec.check_round(graph, {0: 1, 1: 0, 2: 1}, 2).is_valid
        # Node 0 dominated without any MIS neighbour in the union graph.
        result = spec.check_round(graph, {0: 0, 1: 0, 2: 1}, 2)
        assert 0 in result.covering_violations


class TestTraceChecks:
    def _trace(self):
        trace = ExecutionTrace(3, "alg", "adv")
        topo = Topology([0, 1, 2], [(0, 1), (1, 2)])
        record_round(trace, topo, {0: 1, 1: 2, 2: 1}, _metrics(1))
        record_round(trace, topo, {0: 1, 1: 2, 2: 1}, _metrics(2))
        record_round(trace, topo, {0: 1, 1: 1, 2: 1}, _metrics(3))  # conflict in round 3
        return trace

    def test_check_trace_and_summary(self):
        spec = TDynamicSpec(coloring_problem_pair(), T=1)
        results = spec.check_trace(self._trace())
        assert [r.is_valid for r in results] == [True, True, False]
        summary = spec.validity_summary(self._trace())
        assert summary["rounds_checked"] == 3.0
        assert summary["valid_rounds"] == 2.0
        assert 0 < summary["valid_fraction"] < 1

    def test_empty_summary(self):
        spec = TDynamicSpec(coloring_problem_pair(), T=1)
        trace = ExecutionTrace(2, "alg", "adv")
        summary = spec.validity_summary(trace)
        assert summary["rounds_checked"] == 0.0 and summary["valid_fraction"] == 1.0

    def test_describe(self):
        spec = TDynamicSpec(coloring_problem_pair(), T=4)
        assert "T=4" in spec.describe()


class TestCheckTraceWindowWalk:
    """``check_trace`` walks the trace once; its results equal per-round checks
    and the brute-force oracle's."""

    ROUNDS = 40

    @pytest.mark.parametrize("delivery", ["full", "kernel"])
    @pytest.mark.parametrize("wakeup", [None, "staggered"])
    def test_equals_per_round_check_round(self, delivery, wakeup):
        spec = ScenarioSpec(
            n=30,
            algorithm="scolor",
            adversary=component("flip-churn", flip_prob=0.1),
            rounds=self.ROUNDS,
            wakeup=wakeup,
        )
        ctx, sim = simulate(spec, 3, delivery)
        trace = sim.run(ctx.rounds)
        assert sim.delivery == delivery
        graph = trace.graph
        checked = 0
        # T = 37 reaches G_0 up to round 36 and spans the 32-round checkpoint
        for T in (1, 5, 37):
            tspec = TDynamicSpec(coloring_problem_pair(), T)
            for start, end in ((1, None), (7, 25), (T + 2, None), (30, 12)):
                last = self.ROUNDS if end is None else end
                expected = oracle_check_trace(tspec.pair, T, trace, start, end)
                assert [
                    tspec.check_round(graph, trace.outputs(r), r) for r in range(start, last + 1)
                ] == expected
                got = tspec.check_trace(trace, start_round=start, end_round=end)
                assert got == expected, (T, start, end)
                checked += sum(res.constrained_nodes for res in got)
            for r, intersection, union in windows(graph, T):
                assert intersection == graph.intersection_graph(r, T)
                assert union == graph.union_graph(r, T)
        assert checked > 0


def _count_graphs_and_reads(monkeypatch):
    """Count ``Topology`` builds and ``ExecutionTrace.output_update`` reads.

    Returns ``(built, reads)``: the names of the ``Topology`` constructors
    called, and the rounds whose output update was read, in call order.
    """
    built, reads = [], []

    def counted(name, method):
        def wrapper(*args, **kwargs):
            built.append(name)
            return method(*args, **kwargs)

        return wrapper

    output_update = ExecutionTrace.output_update
    monkeypatch.setattr(Topology, "__init__", counted("__init__", Topology.__init__))
    monkeypatch.setattr(Topology, "apply", counted("apply", Topology.apply))
    monkeypatch.setattr(
        Topology, "from_arrays", staticmethod(counted("from_arrays", Topology.from_arrays))
    )
    monkeypatch.setattr(
        ExecutionTrace, "output_update", lambda self, r: reads.append(r) or output_update(self, r)
    )
    return built, reads


def _kernel_context(algorithm, retention, rounds=30):
    spec = ScenarioSpec(
        n=40,
        algorithm=algorithm,
        adversary=component("flip-churn", flip_prob=0.05),
        rounds=rounds,
        wakeup="staggered",
    )
    return simulate(spec, 1, "kernel", retention)


class TestCheckTraceCost:
    """The checks of a kernel trace build no graph and read each round's
    output update once."""

    @pytest.mark.parametrize(
        "algorithm, problem, retention",
        [("dynamic-mis", "mis", "full"), ("dynamic-coloring", "coloring", "stats")],
    )
    def test_kernel_trace_check_builds_no_topology(
        self, monkeypatch, algorithm, problem, retention
    ):
        ctx, sim = _kernel_context(algorithm, retention)
        trace = sim.run(ctx.rounds)
        assert sim.delivery == "kernel"

        built, reads = _count_graphs_and_reads(monkeypatch)
        pair = problem_pair_by_name(problem)
        for T in (1, 6, 12):
            tspec = TDynamicSpec(pair, T)
            results = tspec.check_trace(trace)
            assert reads == list(range(1, trace.num_rounds + 1))
            reads.clear()
            tspec.validity_summary(trace, start_round=10, end_round=20)
            assert reads == list(range(1, 21))
            reads.clear()
            assert sum(res.constrained_nodes for res in results) > 0
        verify_partial_solution_every_round(trace, pair, start_round=5)
        assert reads == list(range(1, trace.num_rounds + 1))
        assert built == []
        # the counters see a graph that is built: the union-graph view
        trace.graph.union_graph(trace.num_rounds, 6)
        assert built == ["from_arrays"]

    @pytest.mark.parametrize("retention", ["full", "stats"])
    def test_all_decided_stop_and_convergence_build_no_topology(self, monkeypatch, retention):
        ctx, sim = _kernel_context("smis", retention, rounds=200)
        stop = STOP_CONDITIONS.get("all-decided")(ctx)
        built, reads = _count_graphs_and_reads(monkeypatch)
        stop_reads = []
        for _ in range(ctx.rounds):
            sim.run(1)
            reads.clear()
            before = len(built)
            stopped = stop(sim.trace)
            assert len(built) == before
            stop_reads += reads
            if stopped:
                break
        trace = sim.trace
        assert sim.delivery == "kernel" and stopped and trace.num_rounds < ctx.rounds
        assert stop_reads == list(range(1, trace.num_rounds + 1))
        assert None not in trace.outputs(trace.num_rounds).values()

        built.clear()
        reads.clear()
        ctx.trace = trace
        row = METRICS.get("convergence")(ctx)
        assert row == {"rounds": float(trace.num_rounds), "completed": 1.0}
        assert reads == list(range(1, trace.num_rounds + 1))
        assert built == []
