"""The dominating-set problem (the covering half of MIS).

Output encoding: ``1`` = dominator (in the set), ``0`` = dominated, ``⊥`` =
undecided.  The covering property requires every node with an output other
than ``1`` to have a neighbour with output ``1``; adding edges can only add
such neighbours, so the problem is covering (Definition 3.1).
"""

from __future__ import annotations

import numpy as np

from repro.problems.independent_set import membership_code
from repro.problems.packing_covering import CoveringProblem

__all__ = ["DominatingSetProblem"]


class DominatingSetProblem(CoveringProblem):
    """``M = {v : y_v = 1}`` must dominate every decided node outside it."""

    name = "dominating-set"

    def array_encoder(self):
        return membership_code

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Decided non-members without a member neighbour.

        Partial covering (Section 5.2): an assignment is partial covering
        iff every decided non-member has a ``1``-neighbour — if one lacks
        it, the completion that sets all ⊥ nodes to ``0`` violates its
        condition, so no quantification over completions is needed.
        """
        dominated = np.zeros(codes.size, dtype=bool)
        dominated[u[codes[v] == 1]] = True
        dominated[v[codes[u] == 1]] = True
        return (codes == 0) & ~dominated
