"""Distributed graph problems: LCL base, packing/covering split, T-dynamic variants.

The paper transfers a static graph problem to the dynamic setting by
decomposing it into a *packing* part (preserved under edge removal, checked on
the intersection graph ``G^{T∩}_r``) and a *covering* part (preserved under
edge insertion, checked on the union graph ``G^{T∪}_r``); see Sections 2–3.

Concrete problems shipped here:

* independent set (packing) + dominating set (covering) = **MIS**;
* proper colouring (packing) + degree+1 colour range (covering) =
  **(degree+1)-colouring**.

Each half states its condition once, as ``array_encoder`` /
``array_violations`` (numpy reductions over a graph's edge arrays; ⊥ nodes
are never marked, so the same call checks a partial solution).
:class:`TDynamicSpec` runs it on the window graphs of a trace, and
property B.1 (:func:`repro.core.properties.verify_partial_solution_every_round`)
is ``TDynamicSpec(pair, 1)``: the ``T = 1`` window is ``G_r`` itself.
"""

from repro.problems.base import DistributedGraphProblem
from repro.problems.packing_covering import CoveringProblem, PackingProblem, ProblemPair
from repro.problems.independent_set import IndependentSetProblem
from repro.problems.dominating_set import DominatingSetProblem
from repro.problems.mis import mis_problem_pair
from repro.problems.coloring import (
    DegreePlusOneRangeProblem,
    ProperColoringProblem,
    coloring_problem_pair,
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
    "ProperColoringProblem",
    "DegreePlusOneRangeProblem",
    "coloring_problem_pair",
    "TDynamicSpec",
    "TDynamicCheckResult",
]
