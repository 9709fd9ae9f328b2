"""Unit tests for :mod:`repro.dynamics.dynamic_graph` (Definition 2.1 semantics)."""

import re

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.types import Interval
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology, TopologyDelta
from repro.problems import TDynamicSpec, coloring_problem_pair
from helpers import record_graph


def topo(edges, nodes=range(4)):
    return Topology(nodes, edges)


class TestRecording:
    def test_rejects_bad_n(self):
        with pytest.raises(TopologyError):
            DynamicGraph(0)

    def test_rejects_node_outside_range(self):
        graph = DynamicGraph(3)
        with pytest.raises(TopologyError):
            record_graph(graph, Topology([0, 5], []))

    def test_rejects_shrinking_node_set(self):
        graph = DynamicGraph(4)
        record_graph(graph, Topology([0, 1, 2], []))
        with pytest.raises(TopologyError):
            record_graph(graph, Topology([0, 1], []))

    def test_round_zero_is_empty(self):
        graph = DynamicGraph(4)
        assert graph.topology(0).num_nodes == 0

    def test_round_indexing(self):
        graph = DynamicGraph(4)
        record_graph(graph, topo([(0, 1)]))
        record_graph(graph, topo([(1, 2)]))
        assert graph.last_round == 2
        assert graph.topology(1).edges == frozenset({(0, 1)})
        assert graph.topology(2).edges == frozenset({(1, 2)})
        with pytest.raises(TopologyError):
            graph.topology(3)


class TestWindowQueries:
    def test_definition_21_round_zero_convention(self):
        """For r <= T - 1 the window includes the empty G_0, so both graphs are empty."""
        graph = DynamicGraph(4)
        record_graph(graph, topo([(0, 1)]))
        record_graph(graph, topo([(0, 1)]))
        T = 3
        assert graph.intersection_graph(1, T).num_nodes == 0
        assert graph.intersection_graph(2, T).num_nodes == 0
        assert graph.union_graph(2, T).num_nodes == 0
        record_graph(graph, topo([(0, 1)]))
        # Round 3 is the first round with a full window of T = 3 real rounds.
        assert graph.intersection_graph(3, T).edges == frozenset({(0, 1)})

    def test_intersection_and_union_content(self):
        graph = DynamicGraph(4)
        record_graph(graph, topo([(0, 1), (1, 2)]))
        record_graph(graph, topo([(0, 1), (2, 3)]))
        inter = graph.intersection_graph(2, 2)
        union = graph.union_graph(2, 2)
        assert inter.edges == frozenset({(0, 1)})
        assert union.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_union_edges_include_recently_woken_neighbours(self):
        # Round 2 keeps (0, 1), or drops it: a neighbour seen only in round 1
        # still counts, so the union edge set is the plain union of the rounds.
        for second_round in ([(0, 1), (1, 2)], [(1, 2)]):
            graph = DynamicGraph(5)
            record_graph(graph, Topology([0, 1], [(0, 1)]))
            record_graph(graph, Topology([0, 1, 2], second_round))
            union = graph.union_graph(2, 2)
            # Node 2 woke mid-window: it is not constrained (not in V^{T∩}), but the
            # edge it contributed counts towards node 1's union degree.
            assert graph.intersection_graph(2, 2).nodes == frozenset({0, 1})
            assert union.edges == frozenset({(0, 1), (1, 2)})
            assert union.degree(1) == 2

    @pytest.mark.parametrize("T", [0, -1, 2.5, True])
    def test_window_size_must_be_a_positive_int(self, T):
        graph = DynamicGraph(4)
        record_graph(graph, topo([(0, 1)]))
        names_value = re.escape(f"T={T!r}")
        for query in (graph.intersection_graph, graph.union_graph):
            with pytest.raises(TopologyError, match=names_value):
                query(1, T)
        with pytest.raises(ConfigurationError, match=names_value):
            TDynamicSpec(coloring_problem_pair(), T)



def _record(topologies, path, n=8):
    """``topologies`` recorded as deltas, with their graphs (``"graph"``) or without."""
    graph = DynamicGraph(n)
    previous = Topology([], [])
    for topology in topologies:
        delta = TopologyDelta.between(previous, topology)
        graph.append(delta, topology if path == "graph" else None)
        previous = topology
    return graph


def _growing_topologies(rng, *, n=8, rounds=16):
    """Random rounds with edge churn and a non-decreasing awake set."""
    awake = {0}
    topologies = []
    for _ in range(rounds):
        awake |= {v for v in range(n) if rng.random() < 0.25}
        candidates = [(u, v) for u in sorted(awake) for v in sorted(awake) if u < v]
        mask = rng.random(len(candidates)) < 0.35
        topologies.append(Topology(awake, [e for e, keep in zip(candidates, mask) if keep]))
    return topologies


STORAGE_PATHS = ["graph", "delta"]


@pytest.mark.parametrize("path", STORAGE_PATHS)
class TestWindowStoragePaths:
    """The window queries give one answer whichever way the rounds were stored."""

    def test_single_round(self, path):
        graph = _record([topo([(0, 1), (2, 3)])], path)
        assert graph.intersection_graph(1, 1).edges == frozenset({(0, 1), (2, 3)})
        assert graph.union_graph(1, 1).edges == frozenset({(0, 1), (2, 3)})

    def test_eviction(self, path):
        graph = _record([topo([(0, 1)]), topo([(1, 2)]), topo([(2, 3)])], path)
        # Round 1's edge (0, 1) has left the window of round 3.
        assert graph.union_graph(3, 2).edges == frozenset({(1, 2), (2, 3)})
        assert graph.intersection_graph(3, 2).edges == frozenset()
        assert graph.union_graph(2, 2).edges == frozenset({(0, 1), (1, 2)})

    def test_union_degree_counts_every_neighbour_seen(self, path):
        graph = _record(
            [topo([(0, 1)]), topo([(0, 2)]), topo([(0, 3)]), topo([(0, 3)])], path
        )
        union = graph.union_graph(3, 3)
        assert union.degree(0) == 3
        assert union.degree(1) == 1
        assert union.degree(99) == 0
        # (0, 1)'s last presence (round 1) leaves the window of round 4.
        assert graph.union_graph(4, 3).degree(0) == 2

    @pytest.mark.parametrize("T", [1, 2, 3, 5])
    def test_matches_direct_computation(self, rng_factory, path, T):
        # 70 rounds: checkpoints at rounds 1, 33 and 65 on the "graph" path
        topologies = _growing_topologies(rng_factory.stream("window-brute", T), rounds=70)
        graph = _record(topologies, path)
        for r in range(1, len(topologies) + 1):
            inter, union = graph.intersection_graph(r, T), graph.union_graph(r, T)
            if r < T:  # the window reaches the empty G_0
                assert inter.num_nodes == 0 and union.num_nodes == 0
                continue
            window = topologies[r - T : r]
            nodes = frozenset.intersection(*(t.nodes for t in window))
            assert inter.nodes == nodes
            assert inter.edges == frozenset.intersection(*(t.edges for t in window))
            assert union.edges == frozenset().union(*(t.edges for t in window))
            assert nodes <= union.nodes

class TestStabilityPredicates:
    def test_is_static_on(self):
        graph = DynamicGraph(4)
        record_graph(graph, topo([(0, 1), (2, 3)]))
        record_graph(graph, topo([(0, 1), (1, 2)]))
        record_graph(graph, topo([(0, 1), (1, 2)]))
        assert graph.is_static_on({0, 1}, Interval(1, 3))
        assert not graph.is_static_on({1, 2, 3}, Interval(1, 2))
        assert graph.is_static_on({1, 2, 3}, Interval(2, 3))

    def test_is_static_interval_bounds_checked(self):
        graph = DynamicGraph(4)
        record_graph(graph, topo([]))
        with pytest.raises(TopologyError):
            graph.is_static_on({0}, Interval(1, 5))

    def test_static_ball_interval(self):
        graph = DynamicGraph(6)
        base = Topology(range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
        changed = Topology(range(6), [(0, 1), (1, 2), (3, 4)])
        record_graph(graph, base)
        record_graph(graph, changed)
        # Ball around 0 (radius 2) = {0,1,2}; its induced edges never change.
        assert graph.static_ball_interval(0, 2, Interval(1, 2))
        # Ball around 5 loses its only edge.
        assert not graph.static_ball_interval(5, 1, Interval(1, 2))


class TestChangeStatistics:
    def test_edge_changes(self):
        graph = DynamicGraph(4)
        record_graph(graph, topo([(0, 1)]))
        record_graph(graph, topo([(1, 2)]))
        inserted, deleted = graph.edge_changes(2)
        assert inserted == frozenset({(1, 2)})
        assert deleted == frozenset({(0, 1)})
        first_inserted, first_deleted = graph.edge_changes(1)
        assert first_inserted == frozenset({(0, 1)}) and first_deleted == frozenset()

    def test_churn_per_round(self):
        graph = DynamicGraph(4)
        record_graph(graph, topo([(0, 1)]))
        record_graph(graph, topo([(1, 2)]))
        assert graph.churn_per_round() == [1, 2]
