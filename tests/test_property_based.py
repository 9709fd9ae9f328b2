"""Property-based tests (hypothesis) for the core data structures and problem invariants."""

import collections
import enum

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.types import canonical_edge
from repro.dynamics import generators
from repro.dynamics.adversary import Adversary
from repro.dynamics.adversaries import (
    ChurnAdversary,
    FreezeAfterAdversary,
    LocallyStaticAdversary,
    MobilityAdversary,
    StaticAdversary,
    TargetedColoringAdversary,
    TargetedMisAdversary,
)
from repro.dynamics.churn import (
    BurstChurn,
    EdgeInsertionChurn,
    FlipChurn,
    MarkovEdgeChurn,
    StaticChurn,
    advance_churn,
)
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology, TopologyDelta
from repro.runtime.simulator import Simulator
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.executor import _build_context
from repro.problems import coloring_problem_pair, mis_problem_pair
from repro.runtime.messages import estimate_bits
from repro.algorithms.coloring.greedy import greedy_coloring
from repro.algorithms.mis.greedy import greedy_mis
from test_incremental_delivery import _ADVERSARY_SPECS
from helpers import array_violations_on, mis_vector

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


def _recorded(sequence, with_graphs):
    """``sequence`` recorded as deltas, with each round's graph or without."""
    graph = DynamicGraph(8)
    previous = Topology([], [])
    for topo in sequence:
        graph.append(TopologyDelta.between(previous, topo), topo if with_graphs else None)
        previous = topo
    return graph


@settings(max_examples=30)
@given(growing_topology_sequences())
def test_window_graphs_match_bruteforce(sequence):
    """Definition 2.1 recomputed from scratch, on both storage paths."""
    graphs = [_recorded(sequence, True), _recorded(sequence, False)]
    # T outer, r inner: every T restarts at round 1, so both graphs walk
    # back to a checkpoint (or G_0) instead of only advancing the cursor.
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
# The delta oracle: churn processes and adversaries emit exact deltas
# ---------------------------------------------------------------------------


def _brute_static(base, rng):
    while True:
        yield base.edges


def _brute_markov(base, rng, p_off, p_on, start_present=True):
    edges = sorted(base.edges)
    present = [start_present] * len(edges)
    while True:
        if edges:
            draws = rng.random(len(edges))
            present = [
                (was and not u < p_off) or (not was and u < p_on)
                for was, u in zip(present, draws)
            ]
        yield frozenset(e for e, now in zip(edges, present) if now)


def _brute_burst(base, rng, burst_prob, drop_fraction):
    edges = sorted(base.edges)
    m = len(edges)
    while True:
        keep = max(0, int(round(m * (1.0 - drop_fraction))))
        if not m or rng.random() >= burst_prob or keep >= m:
            yield frozenset(edges)
        else:
            yield frozenset(edges[int(i)] for i in rng.choice(m, size=keep, replace=False))


def _brute_insertion(base, rng, insertions_per_round, lifetime):
    nodes = sorted(base.nodes)
    expiry = {}
    r = 0
    while True:
        r += 1
        expiry = {e: last for e, last in expiry.items() if last > r}
        for _ in range(insertions_per_round if len(nodes) >= 2 else 0):
            u, v = rng.choice(len(nodes), size=2, replace=False)
            e = canonical_edge(nodes[int(u)], nodes[int(v)])
            if e not in base.edges:
                expiry[e] = r + lifetime
        yield base.edges | frozenset(expiry)


#: kind -> brute-force per-round edge sets, making the process's draws
_BRUTE = {
    "static": _brute_static,
    "markov": _brute_markov,
    "flip": lambda base, rng, flip_prob: _brute_markov(base, rng, flip_prob, flip_prob),
    "burst": _brute_burst,
    "edge-insertion": _brute_insertion,
}


def _process(base, kind, params):
    if kind == "static":
        return StaticChurn(base)
    if kind == "markov":
        return MarkovEdgeChurn(base, **params)
    if kind == "flip":
        return FlipChurn(base, **params)
    if kind == "burst":
        return BurstChurn(base, **params)
    return EdgeInsertionChurn(base, **params)


_PROBABILITY = st.sampled_from([0.0, 0.05, 0.3, 0.5, 1.0])

_PARAMS = {
    "static": st.just({}),
    "markov": st.fixed_dictionaries(
        {"p_off": _PROBABILITY, "p_on": _PROBABILITY, "start_present": st.booleans()}
    ),
    "flip": st.fixed_dictionaries({"flip_prob": _PROBABILITY}),
    "burst": st.fixed_dictionaries({"burst_prob": _PROBABILITY, "drop_fraction": _PROBABILITY}),
    "edge-insertion": st.fixed_dictionaries(
        {"insertions_per_round": st.integers(0, 4), "lifetime": st.integers(1, 4)}
    ),
}



@pytest.mark.parametrize("kind", sorted(_BRUTE))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_churn_deltas_replay_the_brute_force_edge_sets(kind, data):
    """Cumulative ``step_delta`` sets from ``G_0 = ∅`` equal a from-scratch per-round set."""
    n = data.draw(st.integers(2, 14), label="n")
    p = data.draw(st.sampled_from([0.0, 0.3, 0.7]), label="p")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rounds = data.draw(st.integers(1, 12), label="rounds")
    params = data.draw(_PARAMS[kind], label="params")
    base = generators.gnp(n, p, np.random.default_rng(seed))
    churn = _process(base, kind, params)
    for _ in range(2):  # the second pass replays after reset()
        brute = _BRUTE[kind](base, np.random.default_rng(seed + 1), **params)
        rng = np.random.default_rng(seed + 1)
        present = frozenset()
        for r in range(1, rounds + 1):
            before = present
            added, removed, present = advance_churn(churn, present, r, rng)
            assert not added & before and removed <= before, f"inexact delta in round {r}"
            assert present == next(brute), f"round {r}"
        churn.reset()


#: Adversaries that only make sense against a specific problem.
_ORACLE_ALGORITHM = {"targeted-coloring": "dcolor", "targeted-mis": "smis"}


def _awake(schedule, nodes, r):
    """``V_r`` under an optional (non-decreasing) wake-up schedule."""
    return nodes if schedule is None else schedule.awake_at(r) & nodes


def _rebuilt_graph(adversary, r, awake):
    """``(V_r, E_r)`` rebuilt from the adversary's own state after its round-``r`` step.

    ``awake`` is the replayed node set; it filters the edges of the
    adversaries whose wake-up schedule hides sleeping nodes' edges.
    """
    if isinstance(adversary, ChurnAdversary):
        nodes = _awake(adversary._wakeup, adversary._all_nodes, r)
        return nodes, frozenset(e for e in adversary._present if e[0] in awake and e[1] in awake)
    if isinstance(adversary, MobilityAdversary):
        nodes = _awake(adversary._wakeup, adversary._all_nodes, r)
        edges = adversary._mobility.current_edges()
        return nodes, frozenset(e for e in edges if e[0] in awake and e[1] in awake)
    if isinstance(adversary, TargetedColoringAdversary):
        return adversary._base.nodes, adversary._base.edges | frozenset(adversary._active)
    if isinstance(adversary, TargetedMisAdversary):
        edges = (adversary._base.edges - frozenset(adversary._cut)) | frozenset(adversary._inserted)
        return adversary._base.nodes, edges
    if isinstance(adversary, LocallyStaticAdversary):
        outside = frozenset(e for e in adversary._present if adversary._outside(e))
        return adversary._base.nodes, adversary._frozen_edges | outside
    if isinstance(adversary, StaticAdversary):
        nodes = _awake(adversary._wakeup, adversary._base.nodes, r)
        return nodes, adversary._base.induced_edges(nodes)
    raise AssertionError(f"no rebuild rule for {type(adversary).__name__}")


class _ReplayOracle(Adversary):
    """Replays the deltas of ``inner`` on plain Python node and edge sets.

    Every round it asserts that the delta is exact (added edges absent,
    removed edges present, endpoints awake, the awake set never shrinks) and
    that the replayed graph equals the one rebuilt from the adversary's own
    state.  A frozen :class:`FreezeAfterAdversary` must repeat its last
    unfrozen graph.
    """

    def __init__(self, inner):
        self._inner = inner
        self.obliviousness = inner.obliviousness
        self._nodes = set()
        self._edges = set()
        self.graphs = []

    def step(self, view):
        r = view.round_index
        delta = self._inner.step(view)
        assert isinstance(delta, TopologyDelta), f"round {r}"
        assert not delta.removed_nodes, f"round {r}: the awake set shrank"
        assert not delta.added_nodes & self._nodes, f"round {r}: woke an awake node"
        assert not delta.added_edges & self._edges, f"round {r}: added a present edge"
        assert delta.removed_edges <= self._edges, f"round {r}: removed an absent edge"
        self._nodes |= delta.added_nodes
        self._edges -= delta.removed_edges
        self._edges |= delta.added_edges
        assert all(u in self._nodes and v in self._nodes for u, v in self._edges), f"round {r}"
        graph = (frozenset(self._nodes), frozenset(self._edges))
        inner = self._inner
        if isinstance(inner, FreezeAfterAdversary):
            if r > 1 and r >= inner.freeze_round:
                assert graph == self.graphs[-1], f"round {r}: the frozen graph moved"
            else:
                assert graph == _rebuilt_graph(inner._inner, r, graph[0]), f"round {r}"
        else:
            assert graph == _rebuilt_graph(inner, r, graph[0]), f"round {r}"
        self.graphs.append(graph)
        return delta


#: Three nodes wake per round, so nodes woken together can share an edge.
_BATCHED_WAKEUP = component("staggered", batch_size=3)


@pytest.mark.parametrize("wakeup", [None, _BATCHED_WAKEUP], ids=["no-wakeup", "staggered"])
@pytest.mark.parametrize("name", sorted(_ADVERSARY_SPECS))
@settings(max_examples=4, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_adversary_deltas_replay_to_the_graph_of_their_state(name, wakeup, seed):
    """Cumulative deltas from ``G_0 = ∅`` give each round's graph, in the trace too."""
    spec = ScenarioSpec(
        n=24,
        algorithm=_ORACLE_ALGORITHM.get(name, "dynamic-coloring"),
        adversary=_ADVERSARY_SPECS[name],
        topology=component("gnp_degree", degree=2.3),
        rounds=16,
        wakeup=wakeup,
    )
    ctx = _build_context(spec, seed)
    oracle = _ReplayOracle(ctx.adversary)
    sim = Simulator(n=ctx.n, algorithm=ctx.algorithm, adversary=oracle, seed=ctx.seed)
    trace = sim.run(ctx.rounds)
    assert len(oracle.graphs) == ctx.rounds
    for r, (nodes, edges) in enumerate(oracle.graphs, start=1):
        topology = trace.topology(r)
        assert (topology.nodes, topology.edges) == (nodes, edges), f"round {r}"


# ---------------------------------------------------------------------------
# Packing / covering monotonicity (Definition 3.1)
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(topologies())
def test_greedy_coloring_solves_pair_and_survives_edge_removal(topo):
    pair = coloring_problem_pair()
    colors = greedy_coloring(topo)
    assert not array_violations_on(pair.packing, topo, colors)
    assert not array_violations_on(pair.covering, topo, colors)
    # Packing survives removing an arbitrary edge.
    if topo.edges:
        edge = sorted(topo.edges)[0]
        smaller = topo.with_edges(remove=[edge])
        assert not array_violations_on(pair.packing, smaller, colors)


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
        assert not array_violations_on(pair.covering, bigger, colors)


@settings(max_examples=40)
@given(topologies())
def test_greedy_mis_solves_pair_with_expected_monotonicity(topo):
    pair = mis_problem_pair()
    assignment = mis_vector(topo, greedy_mis(topo))
    assert not array_violations_on(pair.packing, topo, assignment)
    assert not array_violations_on(pair.covering, topo, assignment)
    # Independence survives edge removal.
    if topo.edges:
        smaller = topo.with_edges(remove=[sorted(topo.edges)[0]])
        assert not array_violations_on(pair.packing, smaller, assignment)
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
        assert not array_violations_on(pair.covering, bigger, assignment)


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


_FLOAT_BITS = 64
_CHAR_BITS = 8
_CONTAINER_OVERHEAD = 2


def _reference_estimate_bits(message):
    """The isinstance-chain ``estimate_bits`` that the exact-type dispatch replaced."""
    if message is None or isinstance(message, bool):
        return 1
    if isinstance(message, int):
        return max(1, int(message).bit_length()) + 1
    if isinstance(message, float):
        return _FLOAT_BITS
    if isinstance(message, str):
        return _CHAR_BITS * max(1, len(message))
    if isinstance(message, (tuple, list, set, frozenset)):
        return _CONTAINER_OVERHEAD + sum(_reference_estimate_bits(item) for item in message)
    if isinstance(message, dict):
        return _CONTAINER_OVERHEAD + sum(
            _reference_estimate_bits(k) + _reference_estimate_bits(v) for k, v in message.items()
        )
    # Fallback for exotic payloads: charge the repr length.
    return _CHAR_BITS * max(1, len(repr(message)))


class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 300


class _Float(float):
    pass


class _Str(str):
    pass


_Pair = collections.namedtuple("_Pair", "tag value")

_MESSAGE_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from(list(_Level)),
    st.floats(),
    st.floats(allow_nan=False).map(_Float),
    st.integers(-(2**62), 2**62).map(np.int64),
    st.floats(allow_nan=False).map(np.float64),
    st.text(max_size=6),
    st.text(max_size=6).map(_Str),
)
_HASHABLE_MESSAGES = st.recursive(
    _MESSAGE_LEAVES,
    lambda children: st.lists(children, max_size=3).map(tuple)
    | st.frozensets(children, max_size=3)
    | st.builds(_Pair, children, children),
    max_leaves=6,
)
_MESSAGES = st.recursive(
    _MESSAGE_LEAVES,
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.lists(children, max_size=4)
    | st.sets(_HASHABLE_MESSAGES, max_size=3)
    | st.frozensets(_HASHABLE_MESSAGES, max_size=3)
    | st.builds(_Pair, children, children)
    | st.dictionaries(_HASHABLE_MESSAGES, children, max_size=3)
    | st.dictionaries(_HASHABLE_MESSAGES, children, max_size=3).map(collections.OrderedDict),
    max_leaves=12,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_MESSAGES)
def test_estimate_bits_matches_the_isinstance_chain(message):
    """Exact types take the fast cases, everything else the general rule;
    both must charge what the plain isinstance chain charged."""
    assert estimate_bits(message) == _reference_estimate_bits(message)
