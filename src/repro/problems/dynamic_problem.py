"""T-dynamic solutions: the paper's sliding-window feasibility notion.

For a problem pair ``(P, C)`` and window size ``T``, the output vector of
round ``r`` is a *T-dynamic solution* (Section 1.1 / end of Section 3) iff

* it is a solution of the packing problem ``P`` on the intersection graph
  ``G^{T∩}_r``, and
* it is a solution of the covering problem ``C`` on the union graph
  ``G^{T∪}_r``

(both over the node set ``V^{T∩}_r`` — nodes awake for fewer than ``T`` rounds
are unconstrained).  :class:`TDynamicSpec` evaluates this per round on a
recorded trace and aggregates per-run statistics; the checker is entirely
independent of the algorithms (it only looks at recorded topologies and
outputs), so the test-suite can use it as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.types import Assignment, NodeId, Round
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology
from repro.problems.packing_covering import ProblemPair

__all__ = ["TDynamicCheckResult", "TDynamicSpec"]


@dataclass(frozen=True)
class TDynamicCheckResult:
    """Outcome of checking one round's output against the T-dynamic definition.

    Attributes
    ----------
    round_index:
        The checked round ``r``.
    constrained_nodes:
        ``|V^{T∩}_r|`` — the number of nodes actually constrained this round.
    packing_violations:
        Nodes violating the packing LCL on the intersection graph (includes
        constrained nodes with ⊥ output).
    covering_violations:
        Nodes violating the covering LCL on the union graph.
    undecided_nodes:
        Constrained nodes whose output is ⊥ (counted separately because a
        ⊥ output violates *both* halves by definition of a solution).
    """

    round_index: Round
    constrained_nodes: int
    packing_violations: Sequence[NodeId] = field(default_factory=tuple)
    covering_violations: Sequence[NodeId] = field(default_factory=tuple)
    undecided_nodes: Sequence[NodeId] = field(default_factory=tuple)

    @property
    def is_valid(self) -> bool:
        """Whether the round's output is a T-dynamic solution."""
        return not self.packing_violations and not self.covering_violations and not self.undecided_nodes

    @property
    def num_violations(self) -> int:
        """Total number of violating nodes (union of the three lists)."""
        return len(set(self.packing_violations) | set(self.covering_violations) | set(self.undecided_nodes))


class TDynamicSpec:
    """A problem pair together with a window size ``T``."""

    def __init__(self, pair: ProblemPair, T: int) -> None:
        if not isinstance(T, int) or isinstance(T, bool) or T < 1:
            raise ConfigurationError(f"window size T must be an integer >= 1, got T={T!r}")
        self._pair = pair
        self._T = T

    @property
    def pair(self) -> ProblemPair:
        """The packing/covering pair."""
        return self._pair

    @property
    def T(self) -> int:
        """The window size."""
        return self._T

    # -- per-round check ---------------------------------------------------------

    def check_round(self, graph: DynamicGraph, outputs: Assignment, r: Round) -> TDynamicCheckResult:
        """Check the round-``r`` output recorded in ``graph`` against the definition."""
        return self._check(
            graph.intersection_graph(r, self._T), graph.union_graph(r, self._T), outputs, r
        )

    def _check(
        self, intersection: Topology, union: Topology, outputs: Assignment, r: Round
    ) -> TDynamicCheckResult:
        constrained = intersection.nodes
        undecided = tuple(sorted(v for v in constrained if outputs.get(v) is None))
        packing_bad = tuple(
            v
            for v in sorted(constrained)
            if outputs.get(v) is not None
            and not self._pair.packing.check_node(intersection, outputs, v)
        )
        covering_bad = tuple(
            v
            for v in sorted(constrained)
            if outputs.get(v) is not None
            and not self._pair.covering.check_node(union, outputs, v)
        )
        return TDynamicCheckResult(
            round_index=r,
            constrained_nodes=len(constrained),
            packing_violations=packing_bad,
            covering_violations=covering_bad,
            undecided_nodes=undecided,
        )

    # -- whole-trace checks ------------------------------------------------------

    def check_trace(self, trace, *, start_round: int = 1, end_round: Optional[int] = None) -> List[TDynamicCheckResult]:
        """Check every recorded round of an :class:`~repro.runtime.trace.ExecutionTrace`.

        Equal to :meth:`check_round` per round, from one forward walk over
        the recorded graphs (:meth:`DynamicGraph.windows`).
        """
        end = trace.num_rounds if end_round is None else min(end_round, trace.num_rounds)
        return [
            self._check(intersection, union, trace.outputs(r), r)
            for r, intersection, union in trace.graph.windows(self._T, start_round, end)
        ]

    def validity_summary(self, trace, *, start_round: int = 1, end_round: Optional[int] = None) -> Dict[str, float]:
        """Aggregate validity statistics over a trace (used by experiments E4/E7/E9)."""
        results = self.check_trace(trace, start_round=start_round, end_round=end_round)
        if not results:
            return {
                "rounds_checked": 0.0,
                "valid_rounds": 0.0,
                "valid_fraction": 1.0,
                "max_violations": 0.0,
                "mean_violations": 0.0,
                "constrained_rounds": 0.0,
            }
        valid = sum(1 for res in results if res.is_valid)
        violations = [res.num_violations for res in results]
        constrained = sum(1 for res in results if res.constrained_nodes > 0)
        return {
            "rounds_checked": float(len(results)),
            "valid_rounds": float(valid),
            "valid_fraction": valid / len(results),
            "max_violations": float(max(violations)),
            "mean_violations": float(sum(violations) / len(violations)),
            "constrained_rounds": float(constrained),
        }

    def describe(self) -> str:
        """One-line description for reports."""
        return f"T-dynamic({self._pair.name}, T={self._T})"
