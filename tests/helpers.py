"""Helpers shared by several test modules."""

from repro.dynamics.topology import TopologyDelta


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
