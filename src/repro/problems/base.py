"""Base class for locally checkable distributed graph problems.

A distributed graph problem (Definition 2.2) is a set of pairs ``(G, y)`` of
a graph and an output vector.  The paper restricts attention to problems whose
feasibility can be verified by checking a constant-radius neighbourhood of
every node (the class ``LD(O(1))`` of [FKP11] / LCL problems of [NS93]); MIS
and colouring need radius 1.

:class:`DistributedGraphProblem` captures exactly that: subclasses implement
the per-node LCL condition :meth:`check_node`, and the generic methods derive
full-solution checks, violation listings and partial-assignment handling.
A problem the T-dynamic checker evaluates also states its condition over
arrays (:meth:`array_encoder` / :meth:`array_violations`), so a whole
round is checked with a few numpy reductions instead of one
:meth:`check_node` call per node.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List, Mapping

import numpy as np

from repro.types import Assignment, NodeId, Value
from repro.dynamics.topology import Topology

__all__ = ["DistributedGraphProblem", "UNDECIDED"]

#: The array code of ⊥ in every :meth:`DistributedGraphProblem.array_encoder`.
UNDECIDED = -1


class DistributedGraphProblem(ABC):
    """A locally checkable graph problem.

    Subclasses provide :meth:`check_node` — the LCL condition of node ``v``
    given the graph and the (complete in ``v``'s neighbourhood) output values.
    """

    #: Human-readable problem name.
    name: str = "problem"

    #: Radius of the LCL check (all shipped problems use radius 1).
    radius: int = 1

    # -- per-node LCL condition -------------------------------------------------

    @abstractmethod
    def check_node(self, graph: Topology, assignment: Assignment, v: NodeId) -> bool:
        """Whether the LCL condition of ``v`` holds under ``assignment``.

        Implementations may assume ``assignment.get(v)`` is not ``⊥`` — the
        callers below only invoke the check on nodes with an output — but must
        tolerate ``⊥`` values on neighbours (treating them as unconstrained or
        constrained, depending on the problem's partial-solution semantics, is
        the job of :mod:`repro.problems.packing_covering`, not of this method;
        here neighbours are expected to carry real values).
        """

    # -- the condition over arrays -------------------------------------------------

    def array_encoder(self) -> Callable[[Value], int]:
        """A function mapping an output value to the int :meth:`array_violations` reads.

        ⊥ maps to :data:`UNDECIDED`, every other value to a code ``>= 0``.
        An encoder may keep state (an intern table), so one output vector is
        encoded by one encoder.
        """
        raise NotImplementedError(f"{type(self).__name__} has no array check")

    def array_violations(self, codes: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Bool mask over node ids: decided nodes whose LCL condition fails.

        ``codes`` is the encoded output vector of all ``n`` node ids and the
        graph has the node set ``range(n)`` and the edges ``(u[i], v[i])``.
        At every node with an output the mask is ``not check_node(...)``.
        """
        raise NotImplementedError(f"{type(self).__name__} has no array check")

    # -- whole-graph checks --------------------------------------------------------

    def value_of(self, assignment: Assignment, v: NodeId) -> Value:
        """The output of ``v`` (``None`` = ⊥ when missing)."""
        return assignment.get(v)

    def is_solution(self, graph: Topology, assignment: Assignment) -> bool:
        """Whether ``assignment`` is a (complete) solution on ``graph``.

        Requires every node of the graph to produce an output ``≠ ⊥`` and the
        LCL condition to hold everywhere (Definition 2.2: "In a solution we
        require that all nodes produce some output").
        """
        for v in graph.nodes:
            if assignment.get(v) is None:
                return False
        return all(self.check_node(graph, assignment, v) for v in graph.nodes)

    def violations(self, graph: Topology, assignment: Assignment) -> List[NodeId]:
        """Nodes whose LCL condition fails (⊥ nodes are reported as violations)."""
        bad: List[NodeId] = []
        for v in graph.nodes:
            if assignment.get(v) is None or not self.check_node(graph, assignment, v):
                bad.append(v)
        return sorted(bad)

    def undecided_nodes(self, graph: Topology, assignment: Assignment) -> List[NodeId]:
        """Nodes of ``graph`` whose output is ⊥."""
        return sorted(v for v in graph.nodes if assignment.get(v) is None)

    # -- misc ------------------------------------------------------------------------

    def describe(self) -> str:
        """One-line description for reports."""
        return f"{self.name} (LCL radius {self.radius})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


def restrict_assignment(assignment: Assignment, nodes) -> Mapping[NodeId, Value]:
    """Restrict an assignment to a node set (helper shared by the checkers)."""
    keep = set(nodes)
    return {v: value for v, value in assignment.items() if v in keep}
