"""Dynamic-graph substrate (Section 2 of the paper).

This subpackage provides everything "below" the distributed algorithms:

* :mod:`repro.dynamics.topology` — immutable per-round graph snapshots and
  the :class:`TopologyDelta` change sets between them (``Topology.apply``
  materialises a successor graph with structural sharing).
* :mod:`repro.dynamics.dynamic_graph` — the recorded graph sequence
  ``G_1, G_2, …`` stored as deltas with periodic checkpoint snapshots, plus
  the sliding-window intersection / union graphs of Definition 2.1 (their
  only implementation).
* :mod:`repro.dynamics.generators` — static base topologies.
* :mod:`repro.dynamics.churn` — edge-churn processes (Markov, flip, burst,
  edge insertion), each stepped as a per-round edge delta.
* :mod:`repro.dynamics.mobility` — random-waypoint mobility over a unit square.
* :mod:`repro.dynamics.adversary` — the adversary interface (obliviousness,
  adaptive-offline) and the :class:`AdversaryView` handed to adversaries.
* :mod:`repro.dynamics.adversaries` — concrete adversaries (scripted, churn,
  mobility, locally-static, targeted-colouring, targeted-MIS, freeze-after).
"""

from repro.dynamics.topology import (
    EMPTY_DELTA,
    Topology,
    TopologyDelta,
    empty_topology,
    topology_from_networkx,
)
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.adversary import (
    Adversary,
    AdversaryView,
    ADAPTIVE_OFFLINE,
    FULLY_OBLIVIOUS,
)
from repro.dynamics.wakeup import (
    AllAwake,
    StaggeredWakeup,
    UniformRandomWakeup,
    WakeupSchedule,
)
from repro.dynamics import generators, churn, mobility, adversaries

__all__ = [
    "Topology",
    "TopologyDelta",
    "EMPTY_DELTA",
    "empty_topology",
    "topology_from_networkx",
    "DynamicGraph",
    "Adversary",
    "AdversaryView",
    "ADAPTIVE_OFFLINE",
    "FULLY_OBLIVIOUS",
    "WakeupSchedule",
    "AllAwake",
    "StaggeredWakeup",
    "UniformRandomWakeup",
    "generators",
    "churn",
    "mobility",
    "adversaries",
]
