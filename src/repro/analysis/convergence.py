"""Convergence (rounds-to-completion) measurements.

Used by the E1/E7/E8 experiments that validate the ``O(log n)`` completion
claims (Lemmas 4.4, 5.4, 5.6, 6.2): how many rounds until every (awake,
relevant) node has produced a non-⊥ output.

Every measurement is one forward :class:`DecisionWalk` over the rounds'
recorded output updates, O(#changes) in total: a node wakes in the round
its first output is recorded (its waking round puts it in that round's
change set on every path), and awake sets never shrink, so the nodes seen
so far are the awake set.  No round graph is built.
"""

from __future__ import annotations

from operator import countOf, ne
from typing import Dict, Iterable, List, Optional

from repro.types import NodeId, Value
from repro.runtime.trace import ExecutionTrace

__all__ = [
    "DecisionWalk",
    "first_round_all_decided",
    "rounds_to_completion",
    "completion_round_for_nodes",
]


class DecisionWalk:
    """The output vector of a trace, advanced one round at a time from its updates.

    After :meth:`advance` has replayed rounds ``1 … r``, :attr:`outputs` is
    round ``r``'s output vector (its keys are the awake nodes),
    :attr:`update` maps the nodes in round ``r``'s change set to their
    outputs, :attr:`previous` lists those nodes' outputs at ``r - 1`` (⊥
    while asleep) in the same order, and :attr:`decided` counts the awake
    nodes with an output.  A round costs O(#changes), in C-level passes.
    """

    __slots__ = ("_trace", "round", "outputs", "update", "previous", "decided")

    def __init__(self, trace: ExecutionTrace) -> None:
        self._trace = trace
        #: The last replayed round (0 before the first :meth:`advance`).
        self.round = 0
        self.outputs: Dict[NodeId, Value] = {}
        self.update: Dict[NodeId, Value] = {}
        self.previous: List[Value] = []
        self.decided = 0

    def advance(self) -> None:
        """Replay the next recorded round's output update."""
        r = self.round + 1
        update = self._trace.output_update(r)
        previous = list(map(self.outputs.get, update))
        self.decided += countOf(previous, None) - countOf(update.values(), None)
        self.outputs.update(update)
        self.update, self.previous, self.round = update, previous, r

    @property
    def all_decided(self) -> bool:
        """Whether every awake node has an output (true while none is awake)."""
        return self.decided == len(self.outputs)

    @property
    def changes(self) -> int:
        """The nodes whose output differs (``!=``) from the round before."""
        return sum(map(ne, self.update.values(), self.previous))


def first_round_all_decided(trace: ExecutionTrace, *, start_round: int = 1) -> Optional[int]:
    """First round in which every awake node outputs a value ≠ ⊥ (or ``None``)."""
    walk = DecisionWalk(trace)
    for r in range(1, trace.num_rounds + 1):
        walk.advance()
        if r >= start_round and walk.outputs and walk.all_decided:
            return r
    return None


def rounds_to_completion(trace: ExecutionTrace, *, start_round: int = 1) -> Optional[int]:
    """Number of rounds from ``start_round`` until all awake nodes are decided.

    Returns ``None`` when the trace ends before completion (the caller should
    treat this as a censored observation, not as a huge value).
    """
    done = first_round_all_decided(trace, start_round=start_round)
    if done is None:
        return None
    return done - start_round + 1


def completion_round_for_nodes(
    trace: ExecutionTrace, nodes: Iterable[NodeId], *, start_round: int = 1
) -> Optional[int]:
    """First round from which on every node in ``nodes`` is decided."""
    node_list = list(nodes)
    walk = DecisionWalk(trace)
    outputs = walk.outputs
    for r in range(1, trace.num_rounds + 1):
        walk.advance()
        if r >= start_round and all(outputs.get(v) is not None for v in node_list):
            return r
    return None
