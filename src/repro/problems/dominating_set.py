"""The dominating-set problem (the covering half of MIS).

Output encoding: ``1`` = dominator (in the set), ``0`` = dominated, ``⊥`` =
undecided.  The covering property requires every node with output ``0`` to
have a neighbour with output ``1``; adding edges can only add such neighbours,
so the problem is covering (Definition 3.1).

Partial covering (Section 5.2): an assignment is partial covering iff every
node already in state ``0`` has a ``1``-neighbour — if some ``0`` node lacks
one, the completion that sets all ⊥ nodes to ``0`` violates its condition, so
no quantification over completions is needed.
"""

from __future__ import annotations

import numpy as np

from repro.types import Assignment, NodeId
from repro.dynamics.topology import Topology
from repro.problems.independent_set import membership_code
from repro.problems.packing_covering import CoveringProblem

__all__ = ["DominatingSetProblem"]


class DominatingSetProblem(CoveringProblem):
    """``M = {v : y_v = 1}`` must dominate every node with ``y_v = 0``."""

    name = "dominating-set"

    def check_node(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        """A non-member must have a member neighbour."""
        if assignment.get(v) == 1:
            return True
        return any(assignment.get(u) == 1 for u in graph.neighbors(v))

    def check_node_partial(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        """Partial covering: only nodes already declared dominated (0) are constrained."""
        value = assignment.get(v)
        if value != 0:
            return True
        return any(assignment.get(u) == 1 for u in graph.neighbors(v))

    def array_encoder(self):
        return membership_code

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Decided non-members without a member neighbour."""
        dominated = np.zeros(codes.size, dtype=bool)
        dominated[u[codes[v] == 1]] = True
        dominated[v[codes[u] == 1]] = True
        return (codes == 0) & ~dominated
