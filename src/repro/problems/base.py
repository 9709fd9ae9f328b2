"""Base class for locally checkable distributed graph problems.

A distributed graph problem (Definition 2.2) is a set of pairs ``(G, y)`` of
a graph and an output vector.  The paper restricts attention to problems whose
feasibility can be verified by checking a constant-radius neighbourhood of
every node (the class ``LD(O(1))`` of [FKP11] / LCL problems of [NS93]); MIS
and colouring need radius 1.

:class:`DistributedGraphProblem` states that condition once, over arrays:
:meth:`~DistributedGraphProblem.array_encoder` turns an output value into an
int code and :meth:`~DistributedGraphProblem.array_violations` marks, with a
few numpy reductions over a graph's edge arrays, every decided node whose
condition fails.  ⊥ nodes are never marked, so the same call is the
partial-solution condition of Definition 3.2 (see
:mod:`repro.problems.packing_covering`).  Every check of the library runs
through it: the T-dynamic solutions of
:class:`~repro.problems.dynamic_problem.TDynamicSpec` on the window graphs,
and property B.1, which is the ``T = 1`` window ``G_r``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.types import Value

__all__ = ["DistributedGraphProblem", "UNDECIDED"]

#: The array code of ⊥ in every :meth:`DistributedGraphProblem.array_encoder`.
UNDECIDED = -1


class DistributedGraphProblem(ABC):
    """A locally checkable graph problem, stated over arrays."""

    #: Human-readable problem name.
    name: str = "problem"

    #: Radius of the LCL check (all shipped problems use radius 1).
    radius: int = 1

    @abstractmethod
    def array_encoder(self) -> Callable[[Value], int]:
        """A function mapping an output value to the int :meth:`array_violations` reads.

        ⊥ maps to :data:`UNDECIDED`, every other value to a code ``>= 0``.
        An encoder may keep state (an intern table), so one output vector is
        encoded by one encoder.
        """

    @abstractmethod
    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bool mask over node ids: decided nodes whose LCL condition fails.

        ``codes`` is the encoded output vector of all ``n`` node ids and the
        graph has the node set ``range(n)`` and the edges ``(u[i], v[i])``.
        A node coded :data:`UNDECIDED` is never marked; its neighbours are
        checked as Definition 3.2 checks a partial solution.
        """

    def describe(self) -> str:
        """One-line description for reports."""
        return f"{self.name} (LCL radius {self.radius})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"
