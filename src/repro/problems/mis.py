"""The maximal-independent-set problem as a packing/covering pair (Section 3).

``MIS = independent set (packing) ∧ dominating set (covering)``: the set
``M = {v : y_v = 1}`` must be independent and every node outside it must have
a neighbour inside it.
"""

from __future__ import annotations

from repro.problems.dominating_set import DominatingSetProblem
from repro.problems.independent_set import IndependentSetProblem
from repro.problems.packing_covering import ProblemPair

__all__ = ["mis_problem_pair"]


def mis_problem_pair() -> ProblemPair:
    """The (independent set, dominating set) pair defining MIS."""
    return ProblemPair(packing=IndependentSetProblem(), covering=DominatingSetProblem())
