"""The (degree+1)-colouring problem as a packing/covering pair (Section 4).

* ``CP`` — *proper colouring* without a bound on the number of colours: no two
  adjacent nodes share a colour.  Removing edges removes constraints, so the
  problem is packing.
* ``CC`` — *(degree+1) colour range*: the colour of ``v`` must lie in
  ``{1, …, deg(v) + 1}`` (adjacent nodes may share colours).  Adding edges only
  enlarges the allowed range, so the problem is covering.

Their intersection is the standard (degree+1) list-free colouring problem.

Partial solutions (Section 4.1, discussion before the proof of Lemma 4.1):

* partial packing ⇔ the coloured nodes form a proper colouring (the remaining
  nodes can always be completed greedily with fresh colours);
* partial covering ⇔ every coloured node's colour is within ``deg(v) + 1``
  (the condition depends only on ``v`` itself, so it must hold for every
  completion).
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.types import Assignment, NodeId, Value
from repro.dynamics.topology import Topology
from repro.problems.base import UNDECIDED
from repro.problems.packing_covering import CoveringProblem, PackingProblem, ProblemPair

__all__ = [
    "ProperColoringProblem",
    "DegreePlusOneRangeProblem",
    "coloring_problem_pair",
    "is_proper_coloring",
    "num_colors_used",
]


class ProperColoringProblem(PackingProblem):
    """No two adjacent coloured nodes may share a colour (packing)."""

    name = "proper-coloring"

    def check_node(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        color = assignment.get(v)
        if color is None:
            return False
        return all(assignment.get(u) != color for u in graph.neighbors(v))

    def check_node_partial(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        """Partial packing: coloured nodes must not clash with coloured neighbours."""
        color = assignment.get(v)
        if color is None:
            return True
        for u in graph.neighbors(v):
            other = assignment.get(u)
            if other is not None and other == color:
                return False
        return True

    def array_encoder(self) -> Callable[[Value], int]:
        """Intern each colour: equal colours (as dict keys: hash and ``==``) share a code."""
        codes: Dict[Value, int] = {}

        def encode(color: Value) -> int:
            if color is None:
                return UNDECIDED
            return codes.setdefault(color, len(codes))

        return encode

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Both endpoints of an edge joining two equal colours."""
        clash = (codes[u] == codes[v]) & (codes[u] != UNDECIDED)
        bad = np.zeros(codes.size, dtype=bool)
        bad[u[clash]] = True
        bad[v[clash]] = True
        return bad


#: Range codes above this never pass: a degree is below ``n``.
_MAX_RANGE_CODE = 2**62


def _range_code(color: Value) -> int:
    """The colour itself when it is an int in ``[1, 2**62]``, else 0 (never in range)."""
    if color is None:
        return UNDECIDED
    if isinstance(color, int) and 1 <= color <= _MAX_RANGE_CODE:
        return int(color)
    return 0


class DegreePlusOneRangeProblem(CoveringProblem):
    """Every coloured node's colour must lie in ``{1, …, deg(v) + 1}`` (covering)."""

    name = "degree-plus-one-range"

    def check_node(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        color = assignment.get(v)
        if color is None:
            return False
        return isinstance(color, int) and 1 <= color <= graph.degree(v) + 1

    def check_node_partial(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        """Partial covering: identical condition, but only for coloured nodes."""
        color = assignment.get(v)
        if color is None:
            return True
        return isinstance(color, int) and 1 <= color <= graph.degree(v) + 1

    def array_encoder(self) -> Callable[[Value], int]:
        return _range_code

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Decided nodes whose colour is not an int in ``[1, deg + 1]``."""
        n = codes.size
        degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        return (codes != UNDECIDED) & ((codes < 1) | (codes > degree + 1))


def coloring_problem_pair() -> ProblemPair:
    """The (proper colouring, degree+1 range) pair defining (degree+1)-colouring."""
    return ProblemPair(packing=ProperColoringProblem(), covering=DegreePlusOneRangeProblem())


def is_proper_coloring(graph: Topology, assignment: Assignment, *, require_complete: bool = True) -> bool:
    """Direct check that ``assignment`` properly colours ``graph``.

    With ``require_complete`` (default) every node must be coloured; otherwise
    only coloured nodes are checked against coloured neighbours.
    """
    for v in graph.nodes:
        color = assignment.get(v)
        if color is None:
            if require_complete:
                return False
            continue
        for u in graph.neighbors(v):
            other = assignment.get(u)
            if other is not None and other == color:
                return False
    return True


def num_colors_used(assignment: Assignment) -> int:
    """Number of distinct colours among the coloured nodes."""
    return len({value for value in assignment.values() if value is not None})
