"""Helpers shared by several test modules."""

import collections

from repro.dynamics.topology import Topology, TopologyDelta
from repro.problems.dynamic_problem import TDynamicCheckResult


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
# Brute-force Definition 2.1: the oracle the array window and checks are
# tested against.  Every window is materialised from the round graphs and
# every constrained node is checked with the problems' own check_node.
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
    """One round's :class:`TDynamicCheckResult`, one ``check_node`` call per node."""
    constrained = sorted(intersection.nodes)
    decided = [v for v in constrained if outputs.get(v) is not None]
    return TDynamicCheckResult(
        round_index=r,
        constrained_nodes=len(constrained),
        packing_violations=tuple(
            v for v in decided if not pair.packing.check_node(intersection, outputs, v)
        ),
        covering_violations=tuple(
            v for v in decided if not pair.covering.check_node(union, outputs, v)
        ),
        undecided_nodes=tuple(v for v in constrained if outputs.get(v) is None),
    )


def oracle_check_trace(pair, T, trace, start=1, end=None):
    """``TDynamicSpec(pair, T).check_trace`` recomputed by brute force."""
    return [
        oracle_check(pair, intersection, union, trace.outputs(r), r)
        for r, intersection, union in windows(trace.graph, T, start, end)
    ]
