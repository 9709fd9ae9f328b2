"""Helpers shared by several test modules."""

import collections

from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology, TopologyDelta
from repro.problems import (
    DegreePlusOneRangeProblem,
    DominatingSetProblem,
    IndependentSetProblem,
    ProblemPair,
    ProperColoringProblem,
    TDynamicCheckResult,
    TDynamicSpec,
)
from repro.runtime.simulator import Simulator
from repro.scenarios.executor import _build_context


def simulate(spec, seed, delivery, retention="full"):
    """``(ctx, sim)``: the seed's scenario context and a ``Simulator`` over it.

    Check ``sim.delivery`` after building: a path the run cannot take falls
    back to another.
    """
    ctx = _build_context(spec, seed)
    sim = Simulator(
        n=ctx.n,
        algorithm=ctx.algorithm,
        adversary=ctx.adversary,
        seed=seed,
        delivery=delivery,
        trace_retention=retention,
    )
    return ctx, sim


def record_graph(graph, topology):
    """Append ``topology`` to ``graph`` as the delta from its last round."""
    previous = graph.topology(graph.last_round)
    graph.append(TopologyDelta.between(previous, topology), topology)


def record_round(trace, topology, outputs, metrics):
    """Record ``topology`` and ``outputs`` as the trace's next round.

    The round is diffed from the last one, and its changed-output set is the
    scan of the two output vectors.
    """
    last = trace.num_rounds
    previous = trace.outputs(last) if last else {}
    changed = frozenset(
        v for v, value in outputs.items() if v not in previous or previous[v] != value
    )
    delta = TopologyDelta.between(trace.topology(last), topology)
    trace.record(delta, outputs, metrics, changed, topology=topology)


# ---------------------------------------------------------------------------
# The LCL conditions on a Topology: the problems' array predicate for
# whole-graph assertions, and a brute-force per-node oracle it is tested
# against.
# ---------------------------------------------------------------------------


def array_violations_on(problem, topology, outputs, *, partial=False):
    """Sorted nodes of ``topology`` failing ``problem`` (a half or a ``ProblemPair``).

    The ``T = 1`` check of a one-round trace, so each half runs its array
    predicate on the graph.  A ⊥ node is a violation unless ``partial`` (a
    solution needs every node decided; a partial solution does not).
    """
    pair = problem if isinstance(problem, ProblemPair) else ProblemPair(problem, problem)
    graph = DynamicGraph(max([*topology.nodes, *outputs], default=-1) + 1)
    record_graph(graph, topology)
    result = TDynamicSpec(pair, 1).check_round(graph, outputs, 1)
    undecided = () if partial else result.undecided_nodes
    return sorted({*result.packing_violations, *result.covering_violations, *undecided})


def mis_vector(topology, members):
    """The MIS output vector of a node set: 1 for members, 0 for every other node."""
    return {v: int(v in members) for v in topology.nodes}


#: Each problem's condition at a decided node, from its value and its
#: neighbours' values (⊥ included), written out by hand.
_NODE_CONDITIONS = {
    IndependentSetProblem: lambda value, others: value != 1 or all(o != 1 for o in others),
    DominatingSetProblem: lambda value, others: value == 1 or any(o == 1 for o in others),
    ProperColoringProblem: lambda value, others: all(o != value for o in others),
    DegreePlusOneRangeProblem: lambda value, others: any(
        value == k for k in range(1, len(others) + 2)
    ),
}


def oracle_violations(problem, graph, outputs, nodes):
    """The decided ``nodes`` whose condition fails on ``graph``, one node at a time."""
    holds = _NODE_CONDITIONS[type(problem)]
    return tuple(
        v
        for v in nodes
        if outputs.get(v) is not None
        and not holds(outputs[v], [outputs.get(u) for u in graph.neighbors(v)])
    )


# ---------------------------------------------------------------------------
# Brute-force Definition 2.1: the oracle the array window and checks are
# tested against.  Every window is materialised from the round graphs and
# every constrained node is checked by the per-node oracle above.
# ---------------------------------------------------------------------------


def _intersection(rounds):
    """The nodes and edges present in every graph of a (non-empty) window."""
    it = iter(rounds)
    first = next(it)
    nodes, edges = first.nodes, first.edges
    for topo in it:
        nodes &= topo.nodes
        edges &= topo.edges
    return Topology(nodes, [e for e in edges if e[0] in nodes and e[1] in nodes])


def _union(rounds):
    """The intersection's nodes plus every edge (and endpoint) seen in a window."""
    rounds = list(rounds)
    nodes = frozenset.intersection(*(topo.nodes for topo in rounds))
    edges = frozenset().union(*(topo.edges for topo in rounds))
    return Topology(nodes.union(*edges), edges)


def windows(graph, T, start=1, end=None):
    """Yield ``(r, G^{T∩}_r, G^{T∪}_r)`` by materialising each window's T graphs."""
    end = graph.last_round if end is None else min(end, graph.last_round)
    window = collections.deque(maxlen=T)
    for r in range(max(1, start - T + 1), end + 1):
        window.append(graph.topology(r))
        if r < start:
            continue
        if r < T:  # the window reaches the empty G_0
            yield r, Topology([], []), Topology([], [])
        else:
            yield r, _intersection(window), _union(window)


def oracle_check(pair, intersection, union, outputs, r):
    """One round's :class:`TDynamicCheckResult`, one oracle call per node."""
    constrained = sorted(intersection.nodes)
    return TDynamicCheckResult(
        round_index=r,
        constrained_nodes=len(constrained),
        packing_violations=oracle_violations(pair.packing, intersection, outputs, constrained),
        covering_violations=oracle_violations(pair.covering, union, outputs, constrained),
        undecided_nodes=tuple(v for v in constrained if outputs.get(v) is None),
    )


def oracle_check_trace(pair, T, trace, start=1, end=None):
    """``TDynamicSpec(pair, T).check_trace`` recomputed by brute force."""
    return [
        oracle_check(pair, intersection, union, trace.outputs(r), r)
        for r, intersection, union in windows(trace.graph, T, start, end)
    ]

