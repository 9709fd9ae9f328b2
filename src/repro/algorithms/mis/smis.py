"""Algorithm 5: ``SMis`` — the (O(log n), 2)-network-static MIS algorithm.

``SMis`` is a pipelined variant of Ghaffari's MIS algorithm [Gha16] with one
crucial modification: decided nodes can become *undecided again* whenever
their local MIS condition is violated by a topology change — an ``mis`` node
that receives a mark (a new ``mis`` neighbour appeared) leaves the set, and a
``dominated`` node that receives no mark (its dominator vanished) becomes
undecided.  This is what makes every round's output a partial solution for
the *current* graph (property B.1, Lemma 5.5).

Each undecided node keeps a *desire level* ``p(v) ∈ [1/(5n), 1/2]`` (the lower
cap is the paper's addition for the dynamic setting) and an *effective degree*
``δ(v) = Σ_{u ∈ N(v) ∩ U} p(u)``:

* every round an undecided node becomes a *candidate* with probability
  ``p(v)`` and broadcasts ``(p(v), candidate?)``;
* after receiving, ``p(v)`` is halved if ``δ(v) ≥ 2`` and doubled (capped at
  1/2) otherwise;
* a candidate with no candidate neighbour and no mark joins the MIS; an
  undecided node with a mark joins ``dominated``.

If the 2-neighbourhood of a node is static, it is decided within ``O(log n)``
rounds w.h.p. and never changes its output afterwards (property B.2,
Lemma 5.6, via the golden-round argument adapted from [Gha16]).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.types import MisState, NodeId, Value, mis_state_to_value, value_to_mis_state
from repro.problems.mis import mis_problem_pair
from repro.problems.packing_covering import ProblemPair
from repro.runtime.algorithm import VOLATILE
from repro.runtime.messages import Message
from repro.core.interfaces import NetworkStaticAlgorithm

__all__ = ["SMis"]

MARK = "mark"
UNDECIDED_MSG = "und"


class SMis(NetworkStaticAlgorithm):
    """Algorithm 5 (network-static MIS with the un-decide rules).

    Parameters
    ----------
    undecide_enabled:
        When false, decided nodes never revert (ablation E13b for MIS); the
        paper's algorithm corresponds to the default ``True``.
    """

    name = "smis"
    alpha = 2

    # Purity contract: ``mis`` nodes broadcast the deterministic ``(MARK,)``
    # and ``dominated`` nodes stay silent; undecided nodes draw a fresh
    # candidate coin every round (VOLATILE).  A decided node's ``deliver``
    # re-evaluates the un-decide rules purely from the inbox, so an unchanged
    # inbox makes it a no-op (the rule fired last round or not at all).
    message_stability = "pure"

    def __init__(self, *, undecide_enabled: bool = True) -> None:
        super().__init__()
        self._undecide_enabled = undecide_enabled
        self._state: Dict[NodeId, MisState] = {}
        self._desire: Dict[NodeId, float] = {}
        self._candidate: Dict[NodeId, bool] = {}
        self._undecide_events = 0
        self._undecided_n = 0

    def problem_pair(self) -> ProblemPair:
        return mis_problem_pair()

    # -- lifecycle -------------------------------------------------------------------

    def on_wake(self, v: NodeId) -> None:
        self._state[v] = value_to_mis_state(self.config.input_value(v))
        if self._state[v] is MisState.UNDECIDED:
            self._undecided_n += 1
        self._desire[v] = 0.5
        self._candidate[v] = False

    def compose(self, v: NodeId) -> Message:
        state = self._state[v]
        if state is MisState.MIS:
            return (MARK,)
        if state is MisState.UNDECIDED:
            p = self._desire[v]
            is_candidate = bool(self.rng(v).random() < p)
            self._candidate[v] = is_candidate
            return (UNDECIDED_MSG, p, is_candidate)
        return None  # dominated nodes stay silent

    def compose_fingerprint(self, v: NodeId) -> Message:
        state = self._state[v]
        if state is MisState.MIS:
            return (MARK,)
        if state is MisState.UNDECIDED:
            return VOLATILE
        return None

    def deliver(self, v: NodeId, inbox: Mapping[NodeId, Message]) -> None:
        mark_received = False
        candidate_note = False
        effective_degree = 0.0
        # Ascending-neighbour order pins the floating-point accumulation order
        # of the effective degree, making it independent of inbox dict history
        # (and equal to the array kernel's segmented sum).
        for u in sorted(inbox):
            message = inbox[u]
            if not isinstance(message, tuple):
                continue
            if message[0] == MARK:
                mark_received = True
            elif message[0] == UNDECIDED_MSG and len(message) == 3:
                effective_degree += float(message[1])
                if message[2]:
                    candidate_note = True

        state = self._state[v]

        if state is MisState.UNDECIDED:
            # Desire-level update (line 5): capped at [1/(5n), 1/2].
            floor = 1.0 / (5.0 * self.n)
            if effective_degree >= 2.0:
                self._desire[v] = max(self._desire[v] / 2.0, floor)
            else:
                self._desire[v] = min(2.0 * self._desire[v], 0.5)

        if state is MisState.UNDECIDED and mark_received:
            self._state[v] = MisState.DOMINATED
            self._undecided_n -= 1
        elif (
            state is MisState.UNDECIDED
            and not mark_received
            and self._candidate[v]
            and not candidate_note
        ):
            self._state[v] = MisState.MIS
            self._undecided_n -= 1
        elif state is MisState.MIS and mark_received and self._undecide_enabled:
            self._state[v] = MisState.UNDECIDED
            self._undecide_events += 1
            self._undecided_n += 1
        elif state is MisState.DOMINATED and not mark_received and self._undecide_enabled:
            self._state[v] = MisState.UNDECIDED
            self._undecide_events += 1
            self._undecided_n += 1

    def output(self, v: NodeId) -> Value:
        state = self._state.get(v)
        if state is None:
            return None
        return mis_state_to_value(state)

    def as_kernel(self):
        # the un-decide ablation is the same kernel with the rules switched off
        from repro.algorithms.mis.ablations import SMisNoUndecideAblation

        if type(self) not in (SMis, SMisNoUndecideAblation):
            return None
        from repro.kernel.mis import SMisKernel

        return lambda: SMisKernel(self, undecide_enabled=self._undecide_enabled)

    # -- introspection -----------------------------------------------------------------

    def state_of(self, v: NodeId) -> MisState:
        """The node's tri-state (``undecided`` if it has not woken up)."""
        return self._state.get(v, MisState.UNDECIDED)

    def desire_level_of(self, v: NodeId) -> float:
        """The node's current desire level ``p(v)``."""
        return self._desire.get(v, 0.5)

    def undecided_count(self) -> int:
        """Number of awake nodes still undecided (maintained incrementally)."""
        return self._undecided_n

    def metrics(self) -> Mapping[str, float]:
        return {
            "undecided": float(self.undecided_count()),
            "undecide_events": float(self._undecide_events),
        }
