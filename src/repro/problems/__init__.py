"""Distributed graph problems: LCL base, packing/covering split, T-dynamic variants.

The paper transfers a static graph problem to the dynamic setting by
decomposing it into a *packing* part (preserved under edge removal, checked on
the intersection graph ``G^{T∩}_r``) and a *covering* part (preserved under
edge insertion, checked on the union graph ``G^{T∪}_r``); see Sections 2–3.

Concrete problems shipped here:

* independent set (packing) + dominating set (covering) = **MIS**;
* proper colouring (packing) + degree+1 colour range (covering) =
  **(degree+1)-colouring**.
"""

from repro.problems.base import DistributedGraphProblem
from repro.problems.packing_covering import CoveringProblem, PackingProblem, ProblemPair
from repro.problems.independent_set import IndependentSetProblem
from repro.problems.dominating_set import DominatingSetProblem
from repro.problems.mis import mis_problem_pair, is_maximal_independent_set
from repro.problems.coloring import (
    DegreePlusOneRangeProblem,
    ProperColoringProblem,
    coloring_problem_pair,
    is_proper_coloring,
)
from repro.problems.dynamic_problem import TDynamicCheckResult, TDynamicSpec

__all__ = [
    "DistributedGraphProblem",
    "PackingProblem",
    "CoveringProblem",
    "ProblemPair",
    "IndependentSetProblem",
    "DominatingSetProblem",
    "mis_problem_pair",
    "is_maximal_independent_set",
    "ProperColoringProblem",
    "DegreePlusOneRangeProblem",
    "coloring_problem_pair",
    "is_proper_coloring",
    "TDynamicSpec",
    "TDynamicCheckResult",
]
