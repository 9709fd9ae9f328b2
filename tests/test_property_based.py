"""Property-based tests (hypothesis) for the core data structures and problem invariants."""

from hypothesis import given, settings, strategies as st

from repro.types import canonical_edge
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology
from repro.problems.coloring import coloring_problem_pair, is_proper_coloring
from repro.problems.mis import mis_assignment_from_set, mis_problem_pair
from repro.runtime.messages import estimate_bits
from repro.algorithms.coloring.greedy import greedy_coloring
from repro.algorithms.mis.greedy import greedy_mis

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

NODE_COUNT = st.integers(min_value=2, max_value=12)


@st.composite
def topologies(draw, min_nodes=2, max_nodes=12):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)) if possible else st.just([]))
    return Topology(range(n), edges)


@st.composite
def growing_topology_sequences(draw, max_length=7, n=8):
    """``G_1 … G_L`` with a non-decreasing awake set (nodes wake up late)."""
    length = draw(st.integers(min_value=1, max_value=max_length))
    awake: frozenset = frozenset()
    sequence = []
    for _ in range(length):
        awake |= draw(st.frozensets(st.integers(0, n - 1), max_size=3))
        possible = [(i, j) for i in sorted(awake) for j in sorted(awake) if i < j]
        edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
        sequence.append(Topology(awake, edges))
    return sequence


# ---------------------------------------------------------------------------
# Basic structures
# ---------------------------------------------------------------------------

@given(st.integers(0, 1000), st.integers(0, 1000))
def test_canonical_edge_is_sorted_or_raises(u, v):
    if u == v:
        return
    edge = canonical_edge(u, v)
    assert edge[0] < edge[1]
    assert edge == canonical_edge(v, u)


@given(topologies())
def test_degree_sums_to_twice_edges(topo):
    assert sum(topo.degree(v) for v in topo.nodes) == 2 * topo.num_edges


@given(topologies(), st.integers(0, 3))
def test_ball_monotone_in_radius(topo, radius):
    center = min(topo.nodes)
    assert topo.ball(center, radius) <= topo.ball(center, radius + 1)


@given(topologies())
def test_subgraph_of_all_nodes_is_identity(topo):
    assert topo.subgraph(topo.nodes) == topo


def _recorded(sequence, checkpoint_interval=None):
    """``sequence`` recorded by ``append`` (``None``) or by ``append_delta``."""
    if checkpoint_interval is None:
        graph = DynamicGraph(8)
        for topo in sequence:
            graph.append(topo)
        return graph
    graph = DynamicGraph(8, checkpoint_interval=checkpoint_interval)
    previous = Topology([], [])
    for topo in sequence:
        graph.append_delta(previous.delta_to(topo))
        previous = topo
    return graph


@settings(max_examples=30)
@given(growing_topology_sequences())
def test_window_graphs_match_bruteforce(sequence):
    """Definition 2.1 recomputed from scratch, on both storage paths."""
    graphs = [_recorded(sequence)] + [_recorded(sequence, k) for k in (1, 3, 32)]
    # T outer, r inner: every T restarts at round 1, so the delta graphs
    # walk back to a checkpoint instead of only advancing the cursor.
    for T in range(1, len(sequence) + 2):
        for r in range(1, len(sequence) + 1):
            if r < T:  # the window reaches the empty G_0
                expected_inter = expected_union = Topology([], [])
            else:
                window = sequence[r - T : r]
                nodes = frozenset.intersection(*(t.nodes for t in window))
                union_edges = frozenset().union(*(t.edges for t in window))
                expected_inter = Topology(nodes, frozenset.intersection(*(t.edges for t in window)))
                expected_union = Topology(nodes.union(*union_edges), union_edges)
            for graph in graphs:
                inter, union = graph.intersection_graph(r, T), graph.union_graph(r, T)
                assert inter == expected_inter
                assert union == expected_union
                assert inter.nodes <= union.nodes and inter.edges <= union.edges


# ---------------------------------------------------------------------------
# Packing / covering monotonicity (Definition 3.1)
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(topologies())
def test_greedy_coloring_solves_pair_and_survives_edge_removal(topo):
    pair = coloring_problem_pair()
    colors = greedy_coloring(topo)
    assert pair.packing.is_solution(topo, colors)
    assert pair.covering.is_solution(topo, colors)
    # Packing survives removing an arbitrary edge.
    if topo.edges:
        edge = sorted(topo.edges)[0]
        smaller = topo.with_edges(remove=[edge])
        assert pair.packing.is_solution(smaller, colors)


@settings(max_examples=40)
@given(topologies())
def test_degree_range_covering_survives_edge_addition(topo):
    pair = coloring_problem_pair()
    colors = greedy_coloring(topo)
    nodes = sorted(topo.nodes)
    missing = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if not topo.has_edge(u, v)
    ]
    if missing:
        bigger = topo.with_edges(add=[missing[0]])
        assert pair.covering.is_solution(bigger, colors)


@settings(max_examples=40)
@given(topologies())
def test_greedy_mis_solves_pair_with_expected_monotonicity(topo):
    pair = mis_problem_pair()
    assignment = mis_assignment_from_set(topo, greedy_mis(topo))
    assert pair.packing.is_solution(topo, assignment)
    assert pair.covering.is_solution(topo, assignment)
    # Independence survives edge removal.
    if topo.edges:
        smaller = topo.with_edges(remove=[sorted(topo.edges)[0]])
        assert pair.packing.is_solution(smaller, assignment)
    # Domination survives edge addition.
    nodes = sorted(topo.nodes)
    missing = [
        (u, v)
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
        if not topo.has_edge(u, v)
    ]
    if missing:
        bigger = topo.with_edges(add=[missing[0]])
        assert pair.covering.is_solution(bigger, assignment)


@settings(max_examples=40)
@given(topologies())
def test_greedy_coloring_is_proper_and_degree_bounded(topo):
    colors = greedy_coloring(topo)
    assert is_proper_coloring(topo, colors)
    assert all(1 <= colors[v] <= topo.degree(v) + 1 for v in topo.nodes)


# ---------------------------------------------------------------------------
# Message accounting
# ---------------------------------------------------------------------------

@given(
    st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(allow_nan=False), st.text(max_size=8)),
        lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=8,
    )
)
def test_estimate_bits_always_positive(message):
    assert estimate_bits(message) >= 1
