"""Unit tests for :mod:`repro.dynamics.topology`."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.dynamics.topology import Topology, empty_topology, topology_from_networkx


class TestConstruction:
    def test_canonicalises_edges(self, triangle):
        assert (0, 1) in triangle.edges
        assert (1, 0) not in triangle.edges
        assert triangle.num_edges == 3

    def test_duplicate_edges_collapse(self):
        topo = Topology([0, 1], [(0, 1), (1, 0), (0, 1)])
        assert topo.num_edges == 1

    def test_rejects_edge_to_sleeping_node(self):
        with pytest.raises(TopologyError):
            Topology([0, 1], [(0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology([0, 1], [(0, 0)])

    def test_isolated_nodes_allowed(self):
        topo = Topology([0, 1, 2], [(0, 1)])
        assert topo.degree(2) == 0
        assert topo.has_node(2)

    def test_empty_topology(self):
        topo = empty_topology([3, 4])
        assert topo.num_nodes == 2 and topo.num_edges == 0


class TestAccessors:
    def test_neighbors_and_degree(self, path4):
        assert path4.neighbors(1) == frozenset({0, 2})
        assert path4.degree(0) == 1
        assert path4.degree(1) == 2
        assert path4.degree(99) == 0

    def test_has_edge(self, path4):
        assert path4.has_edge(0, 1) and path4.has_edge(1, 0)
        assert not path4.has_edge(0, 2)
        assert not path4.has_edge(1, 1)

    def test_contains_iter_len(self, triangle):
        assert 0 in triangle and 5 not in triangle
        assert sorted(triangle) == [0, 1, 2]
        assert len(triangle) == 3

    def test_adjacency_mapping(self, triangle):
        adjacency = triangle.adjacency()
        assert adjacency[0] == frozenset({1, 2})


class TestDerivedGraphs:
    def test_subgraph(self, path4):
        sub = path4.subgraph({0, 1, 3})
        assert sub.nodes == frozenset({0, 1, 3})
        assert sub.edges == frozenset({(0, 1)})

    def test_ball_radii(self, path4):
        assert path4.ball(0, 0) == frozenset({0})
        assert path4.ball(0, 1) == frozenset({0, 1})
        assert path4.ball(0, 2) == frozenset({0, 1, 2})
        assert path4.ball(0, 10) == frozenset({0, 1, 2, 3})

    def test_ball_of_sleeping_node_is_empty(self, path4):
        assert path4.ball(99, 2) == frozenset()

    def test_ball_negative_radius_rejected(self, path4):
        with pytest.raises(TopologyError):
            path4.ball(0, -1)

    def test_induced_edges(self, triangle):
        assert triangle.induced_edges({0, 1}) == frozenset({(0, 1)})

    def test_with_edges_add_remove(self, path4):
        modified = path4.with_edges(add=[(0, 3)], remove=[(1, 2)])
        assert modified.has_edge(0, 3)
        assert not modified.has_edge(1, 2)
        # original untouched (immutability)
        assert path4.has_edge(1, 2) and not path4.has_edge(0, 3)

    def test_with_nodes(self, triangle):
        bigger = triangle.with_nodes([7])
        assert 7 in bigger.nodes and bigger.degree(7) == 0


class TestComparisons:
    def test_equality_and_hash(self):
        a = Topology([0, 1, 2], [(0, 1)])
        b = Topology([0, 1, 2], [(1, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Topology([0, 1, 2], [(1, 2)])

    def test_restricted_equals(self):
        a = Topology([0, 1, 2, 3], [(0, 1), (2, 3)])
        b = Topology([0, 1, 2, 3], [(0, 1), (1, 3)])
        assert a.restricted_equals(b, {0, 1})
        assert not a.restricted_equals(b, {1, 2, 3})

    def test_restricted_equals_detects_node_difference(self):
        a = Topology([0, 1], [])
        b = Topology([0], [])
        assert not a.restricted_equals(b, {0, 1})


class TestConversions:
    def test_to_networkx_roundtrip(self, triangle):
        graph = triangle.to_networkx()
        assert isinstance(graph, nx.Graph)
        assert topology_from_networkx(graph) == triangle


@st.composite
def edge_arrays(draw):
    """Awake node ids (sparse, in draw order) and a sorted canonical edge list."""
    nodes = draw(st.lists(st.integers(0, 5000), min_size=1, max_size=40, unique=True))
    ordered = sorted(nodes)
    possible = [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=200)) if possible else []
    return nodes, sorted(edges)


def _arrays(edges):
    u = np.array([a for a, _ in edges], dtype=np.int64)
    v = np.array([b for _, b in edges], dtype=np.int64)
    return u, v


class TestFromArrays:
    @settings(max_examples=150, deadline=None)
    @given(edge_arrays(), st.randoms(use_true_random=False))
    def test_equals_the_constructor_in_content_and_order(self, graph, shuffler):
        nodes, edges = graph
        u, v = _arrays(edges)
        built = Topology.from_arrays(nodes, u, v)
        reference = Topology(nodes, zip(u.tolist(), v.tolist()))
        assert built == reference
        assert list(built.nodes) == list(reference.nodes)
        assert list(built.edges) == list(reference.edges)
        for x in reference.nodes:
            assert list(built.neighbors(x)) == list(reference.neighbors(x))
        assert list(built.adjacency()) == list(reference.adjacency())
        assert built.sorted_edges() == tuple(sorted(reference.edges))
        assert built.iterates_like(reference)
        # unsorted input gives the topology of the sorted edges
        order = list(range(len(edges)))
        shuffler.shuffle(order)
        assert Topology.from_arrays(nodes, u[order], v[order]).iterates_like(reference)

    def test_node_array_and_no_edges(self):
        empty = np.empty(0, dtype=np.int64)
        built = Topology.from_arrays(np.array([3, 1, 2]), empty, empty)
        assert built == Topology([3, 1, 2], ())
        assert built.sorted_edges() == ()
        assert built.neighbors(1) == frozenset()

    @pytest.mark.parametrize(
        "nodes, u, v, message",
        [
            (range(3), [1, 0], [1, 2], "not canonical"),
            (range(3), [2], [1], "not canonical"),
            (range(3), [-1], [0], "negative endpoint"),
            (range(3), [0], [5], "outside the awake node set"),
            ([0, 2], [0], [1], "outside the awake node set"),
            (range(3), [0, 1, 0], [1, 2, 1], "duplicate edge"),
            (range(3), [0], [1, 2], "differ in length"),
            (range(3), np.array([0.0]), [1], "integer array"),
            (range(3), [0], np.array([[1]]), "1-D integer array"),
        ],
    )
    def test_malformed_input_names_the_problem(self, nodes, u, v, message):
        with pytest.raises(TopologyError, match=message):
            Topology.from_arrays(nodes, np.asarray(u), np.asarray(v))

    def test_sorted_edges_is_cached_and_sorted(self, triangle):
        assert triangle.sorted_edges() == ((0, 1), (0, 2), (1, 2))
        assert triangle.sorted_edges() is triangle.sorted_edges()
