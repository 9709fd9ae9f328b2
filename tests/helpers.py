"""Helpers shared by several test modules."""

from repro.dynamics.topology import TopologyDelta


def record_round(trace, topology, outputs, metrics):
    """Record ``topology`` as the trace's next round, diffed from the last one."""
    previous = trace.graph.topology(trace.num_rounds)
    trace.record(topology, outputs, metrics, delta=TopologyDelta.between(previous, topology))
