"""Packing / covering problems and partial solutions (Definitions 3.1 and 3.2).

* A problem is **packing** if any solution for ``G`` remains a solution after
  removing edges (edges are constraints; fewer constraints cannot hurt).
* A problem is **covering** if any solution for ``G`` remains a solution after
  adding edges (edges help to cover; more edges cannot hurt).

Partial solutions (Definition 3.2) allow ⊥ outputs:

* ``φ`` is *partial packing* if **some** completion of ``φ`` satisfies the LCL
  condition at every node that already has an output;
* ``φ`` is *partial covering* if **every** completion of ``φ`` satisfies the
  LCL condition at every node that already has an output.

Quantifying over all completions is not tractable generically, but every
problem shipped here has a direct characterisation, and its
``array_violations`` states exactly that one: a decided node is marked iff
its condition fails against its decided neighbours (the characterisations
are spelled out next to each ``array_violations``).  So one predicate
serves both guarantees: a T-dynamic solution (Section 3) is a partial
solution with no ⊥ node on the window graphs ``G^{T∩}_r`` / ``G^{T∪}_r``,
and property B.1 asks for a partial solution on ``G_r``, the ``T = 1``
window (:func:`repro.core.properties.verify_partial_solution_every_round`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.problems.base import DistributedGraphProblem

__all__ = ["PackingProblem", "CoveringProblem", "ProblemPair"]


class PackingProblem(DistributedGraphProblem):
    """A problem whose solutions survive edge deletions (Definition 3.1)."""


class CoveringProblem(DistributedGraphProblem):
    """A problem whose solutions survive edge insertions (Definition 3.1)."""


@dataclass(frozen=True)
class ProblemPair:
    """A packing problem and a covering problem whose intersection is the target LCL.

    The classic examples (Section 3): independent set × dominating set = MIS,
    proper colouring × degree+1 range = (degree+1)-colouring.
    """

    packing: PackingProblem
    covering: CoveringProblem

    @property
    def name(self) -> str:
        """Combined name, e.g. ``"independent-set ∧ dominating-set"``."""
        return f"{self.packing.name} ∧ {self.covering.name}"
