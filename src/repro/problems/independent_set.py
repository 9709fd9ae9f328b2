"""The independent-set problem (the packing half of MIS).

Output encoding (Definition 2.2): ``1`` = in the set, ``0`` = not in the set
(dominated), ``⊥`` = undecided.  The packing property is that no two adjacent
nodes both output ``1``; removing edges can only remove such constraints, so
the problem is packing (Definition 3.1).

Partial packing (Section 5.2): an assignment with ⊥ entries is partial packing
iff no two adjacent nodes are both in the set — undecided nodes can always be
completed to ``0`` (dominated) without violating anyone's condition.
"""

from __future__ import annotations

import numpy as np

from repro.types import Assignment, NodeId, Value
from repro.dynamics.topology import Topology
from repro.problems.base import UNDECIDED
from repro.problems.packing_covering import PackingProblem

__all__ = ["IndependentSetProblem", "membership_code"]


def membership_code(value: Value) -> int:
    """MIS array code: ``1`` for an output ``== 1``, ``0`` for any other output, ⊥ -> UNDECIDED."""
    if value is None:
        return UNDECIDED
    return 1 if value == 1 else 0


class IndependentSetProblem(PackingProblem):
    """``M = {v : y_v = 1}`` must be an independent set."""

    name = "independent-set"

    def check_node(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        """No neighbour of an MIS node may also be an MIS node."""
        if assignment.get(v) != 1:
            return True
        return all(assignment.get(u) != 1 for u in graph.neighbors(v))

    def check_node_partial(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        """Partial packing: identical to the full condition (⊥ neighbours are harmless)."""
        return self.check_node(graph, assignment, v)

    def array_encoder(self):
        return membership_code

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Both endpoints of an edge joining two members."""
        both = (codes[u] == 1) & (codes[v] == 1)
        bad = np.zeros(codes.size, dtype=bool)
        bad[u[both]] = True
        bad[v[both]] = True
        return bad

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def members(assignment: Assignment) -> frozenset[NodeId]:
        """The set ``M`` encoded by an assignment."""
        return frozenset(v for v, value in assignment.items() if value == 1)
