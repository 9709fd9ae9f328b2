"""The independent-set problem (the packing half of MIS).

Output encoding (Definition 2.2): ``1`` = in the set, ``0`` = not in the set
(dominated), ``⊥`` = undecided.  The packing property is that no two adjacent
nodes both output ``1``; removing edges can only remove such constraints, so
the problem is packing (Definition 3.1).
"""

from __future__ import annotations

import numpy as np

from repro.types import Value
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

    def array_encoder(self):
        return membership_code

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Both endpoints of an edge joining two members.

        Partial packing (Section 5.2): an assignment with ⊥ entries is
        partial packing iff no two adjacent nodes are both in the set —
        undecided nodes can always be completed to ``0`` (dominated) without
        violating anyone's condition.
        """
        both = (codes[u] == 1) & (codes[v] == 1)
        bad = np.zeros(codes.size, dtype=bool)
        bad[u[both]] = True
        bad[v[both]] = True
        return bad
