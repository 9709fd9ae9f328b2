"""The (degree+1)-colouring problem as a packing/covering pair (Section 4).

* ``CP`` — *proper colouring* without a bound on the number of colours: no two
  adjacent nodes share a colour.  Removing edges removes constraints, so the
  problem is packing.
* ``CC`` — *(degree+1) colour range*: the colour of ``v`` must lie in
  ``{1, …, deg(v) + 1}`` (adjacent nodes may share colours).  Adding edges only
  enlarges the allowed range, so the problem is covering.

Their intersection is the standard (degree+1) list-free colouring problem.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.types import Assignment, Value
from repro.problems.base import UNDECIDED
from repro.problems.packing_covering import CoveringProblem, PackingProblem, ProblemPair

__all__ = [
    "ProperColoringProblem",
    "DegreePlusOneRangeProblem",
    "coloring_problem_pair",
    "num_colors_used",
]


class ProperColoringProblem(PackingProblem):
    """No two adjacent coloured nodes may share a colour (packing)."""

    name = "proper-coloring"

    def array_encoder(self) -> Callable[[Value], int]:
        """Intern each colour: equal colours (as dict keys: hash and ``==``) share a code."""
        codes: Dict[Value, int] = {}

        def encode(color: Value) -> int:
            if color is None:
                return UNDECIDED
            return codes.setdefault(color, len(codes))

        return encode

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Both endpoints of an edge joining two equal colours.

        Partial packing (Section 4.1, before the proof of Lemma 4.1): the
        coloured nodes form a proper colouring — the ⊥ nodes can always be
        completed greedily with fresh colours.
        """
        clash = (codes[u] == codes[v]) & (codes[u] != UNDECIDED)
        bad = np.zeros(codes.size, dtype=bool)
        bad[u[clash]] = True
        bad[v[clash]] = True
        return bad


#: Range codes above this never pass: a degree is below ``n``.
_MAX_RANGE_CODE = 2**62


def _range_code(color: Value) -> int:
    """``k`` for a colour equal to an int ``k`` in ``[1, 2**62]``, else 0 (never in range).

    Equal colours get equal codes (``2``, ``2.0``, ``numpy.int64(2)``; ``True``
    is ``1``), so the verdict depends only on what ``!=`` tells apart, as
    the change sets of a recorded trace do.
    """
    if type(color) is int:  # every committed algorithm's colours
        return color if 1 <= color <= _MAX_RANGE_CODE else 0
    if color is None:
        return UNDECIDED
    try:
        k = int(getattr(color, "real", color))
    except (TypeError, ValueError, OverflowError):
        return 0
    return k if 1 <= k <= _MAX_RANGE_CODE and color == k else 0


class DegreePlusOneRangeProblem(CoveringProblem):
    """Every coloured node's colour must lie in ``{1, …, deg(v) + 1}`` (covering)."""

    name = "degree-plus-one-range"

    def array_encoder(self) -> Callable[[Value], int]:
        return _range_code

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Decided nodes whose colour is not equal to an int in ``[1, deg + 1]``.

        Partial covering (Section 4.1): the condition depends only on the
        node itself, so it must hold at every coloured node, whatever the
        completion.
        """
        n = codes.size
        degree = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
        return (codes != UNDECIDED) & ((codes < 1) | (codes > degree + 1))


def coloring_problem_pair() -> ProblemPair:
    """The (proper colouring, degree+1 range) pair defining (degree+1)-colouring."""
    return ProblemPair(packing=ProperColoringProblem(), covering=DegreePlusOneRangeProblem())


def num_colors_used(assignment: Assignment) -> int:
    """Number of distinct colours among the coloured nodes."""
    return len({value for value in assignment.values() if value is not None})
