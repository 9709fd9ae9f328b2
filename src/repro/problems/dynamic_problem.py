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
outputs), so the test-suite can use it as ground truth.  With ``T = 1`` both
window graphs are ``G_r`` and the node set is the awake set, so the packing
and covering violations of ``TDynamicSpec(pair, 1)`` are the partial-solution
violations of property B.1.

A trace is checked in one forward walk: a
:class:`~repro.dynamics.dynamic_graph.WindowWalk` keeps the window as round
stamps per node and per edge, the output vector is an int array updated
from each round's output update, and each half of the pair evaluates its
condition with a few numpy reductions over the window's edge arrays
(:meth:`~repro.problems.base.DistributedGraphProblem.array_violations`).
No window graph is built and no node is checked one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, TopologyError
from repro.types import Assignment, NodeId, Round
from repro.dynamics.dynamic_graph import DynamicGraph, WindowWalk
from repro.problems.base import UNDECIDED
from repro.problems.packing_covering import ProblemPair

__all__ = ["TDynamicCheckResult", "TDynamicSpec"]

#: One round's ``(constrained, packing, covering, undecided)`` node masks, or
#: ``None`` while the window reaches ``G_0``.
_Verdict = Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


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
        Decided constrained nodes violating the packing LCL on the
        intersection graph (never a ⊥ node: those are ``undecided_nodes``).
    covering_violations:
        Decided constrained nodes violating the covering LCL on the union
        graph (never a ⊥ node either).
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
        packing_codes, covering_codes = (
            _encoded(encode, graph.n, outputs.items()) for encode in self._encoders()
        )
        return _result(r, self._verdict(graph.window_at(r), packing_codes, covering_codes))

    def _encoders(self):
        """Fresh output encoders of the packing and the covering half."""
        return self._pair.packing.array_encoder(), self._pair.covering.array_encoder()

    def _verdict(
        self, walk: WindowWalk, packing_codes: np.ndarray, covering_codes: np.ndarray
    ) -> _Verdict:
        """The node masks of the walk's round (see :data:`_Verdict`)."""
        constrained = walk.constrained(self._T)
        if constrained is None:
            return None
        packing = self._pair.packing.array_violations(
            packing_codes, *walk.intersection_edges(self._T)
        )
        covering = self._pair.covering.array_violations(
            covering_codes, *walk.union_edges(self._T)
        )
        return (
            constrained,
            packing & constrained,
            covering & constrained,
            (packing_codes == UNDECIDED) & constrained,
        )

    # -- whole-trace checks ------------------------------------------------------

    def _walk(self, trace, start_round: int, end_round: Optional[int]) -> Iterator[Tuple[int, _Verdict]]:
        """Yield ``(r, verdict)`` for ``r = start_round … end`` from one forward walk.

        The walk starts at round 1 either way; every round's output update is
        read once and re-encoded into the two int vectors.
        """
        graph = trace.graph
        end = trace.num_rounds if end_round is None else min(end_round, trace.num_rounds)
        if start_round > end:
            return
        if start_round < 1:
            raise TopologyError(
                f"round {start_round} has not been recorded (last = {graph.last_round})"
            )
        walk = WindowWalk(graph)
        encoders = self._encoders()
        packing_codes, covering_codes = (_encoded(e, graph.n, ()) for e in encoders)
        for r in range(1, end + 1):
            walk.advance()
            update = trace.output_update(r)
            if update:
                nodes = np.fromiter(update, np.int64, len(update))
                for encode, codes in zip(encoders, (packing_codes, covering_codes)):
                    codes[nodes] = list(map(encode, update.values()))
            if r >= start_round:
                yield r, self._verdict(walk, packing_codes, covering_codes)

    def check_trace(self, trace, *, start_round: int = 1, end_round: Optional[int] = None) -> List[TDynamicCheckResult]:
        """Check every recorded round of an :class:`~repro.runtime.trace.ExecutionTrace`.

        Equal to :meth:`check_round` per round, from one forward walk over
        the recorded rounds and output updates.
        """
        return [_result(r, verdict) for r, verdict in self._walk(trace, start_round, end_round)]

    def validity_summary(self, trace, *, start_round: int = 1, end_round: Optional[int] = None) -> Dict[str, float]:
        """Aggregate validity statistics over a trace (used by experiments E4/E7/E9)."""
        violations: List[int] = []
        constrained = 0
        for _, verdict in self._walk(trace, start_round, end_round):
            if verdict is None:
                violations.append(0)
                continue
            nodes, packing, covering, undecided = verdict
            violations.append(int(np.count_nonzero(packing | covering | undecided)))
            constrained += bool(nodes.any())
        if not violations:
            return {
                "rounds_checked": 0.0,
                "valid_rounds": 0.0,
                "valid_fraction": 1.0,
                "max_violations": 0.0,
                "mean_violations": 0.0,
                "constrained_rounds": 0.0,
            }
        valid = violations.count(0)
        return {
            "rounds_checked": float(len(violations)),
            "valid_rounds": float(valid),
            "valid_fraction": valid / len(violations),
            "max_violations": float(max(violations)),
            "mean_violations": float(sum(violations) / len(violations)),
            "constrained_rounds": float(constrained),
        }

    def describe(self) -> str:
        """One-line description for reports."""
        return f"T-dynamic({self._pair.name}, T={self._T})"


def _encoded(encode, n: int, items) -> np.ndarray:
    """An int output vector over ``n`` node ids: ``encode(value)`` for ``items``, ⊥ elsewhere."""
    codes = np.full(n, UNDECIDED, dtype=np.int64)
    for v, value in items:
        codes[v] = encode(value)
    return codes


def _result(r: int, verdict: _Verdict) -> TDynamicCheckResult:
    if verdict is None:
        return TDynamicCheckResult(round_index=r, constrained_nodes=0)
    nodes, packing, covering, undecided = verdict
    return TDynamicCheckResult(
        round_index=r,
        constrained_nodes=int(np.count_nonzero(nodes)),
        packing_violations=tuple(np.flatnonzero(packing).tolist()),
        covering_violations=tuple(np.flatnonzero(covering).tolist()),
        undecided_nodes=tuple(np.flatnonzero(undecided).tolist()),
    )
