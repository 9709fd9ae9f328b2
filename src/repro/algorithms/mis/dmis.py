"""Algorithm 4: ``DMis`` — the O(log n)-dynamic MIS algorithm (pipelined Luby).

Every node is in exactly one of three states — ``mis``, ``dominated`` or
``undecided`` — and the input ``(M, D)`` must be a partial solution (``M``
independent, every ``D`` node dominated) of the start-round graph.  The round
body is Luby's algorithm collapsed into a single round type:

* ``mis`` nodes broadcast a *mark*;
* ``undecided`` nodes broadcast a fresh uniform random number;
* an undecided node that receives a mark joins ``dominated``;
* an undecided node whose random number is strictly smaller than every random
  number it received (from undecided neighbours) joins ``mis``.

As in DColor, communication is restricted to the *running intersection graph*:
edges inserted by the adversary after the instance started are ignored.  The
analysis (Lemma 5.2: the expected number of edges between undecided nodes in
the intersection graph drops by a factor 2/3 every two rounds; Lemma 5.4:
all nodes decided after O(log n) rounds w.h.p.) needs a 2-oblivious adversary
— experiment E10 probes what an adaptive adversary can do.

Nodes never leave ``mis`` or ``dominated`` (property A.1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional

from repro.types import MisState, NodeId, Value, mis_state_to_value, value_to_mis_state
from repro.problems.mis import mis_problem_pair
from repro.problems.packing_covering import ProblemPair
from repro.runtime.algorithm import VOLATILE
from repro.runtime.messages import Message
from repro.core.interfaces import DynamicAlgorithm

__all__ = ["DMis"]

MARK = "mark"
RAND = "rand"


class DMis(DynamicAlgorithm):
    """Algorithm 4 (dynamic MIS on the running intersection graph).

    Parameters
    ----------
    revalidate_dominated:
        **Extension beyond the paper** (disabled by default).  The paper's
        combiner can be fed a backbone snapshot containing a *transient
        domination hole* — a node marked ``dominated`` whose only dominator
        left the MIS in the very same round (see the "observed deviation" note
        in README.md).  With this flag, a node whose *input* is
        ``dominated`` re-validates that decision in the instance's first
        round: if no mark arrives from an intersection-graph neighbour, it
        reverts to ``undecided`` and participates normally.  This removes the
        measured MIS validity gap at the cost of weakening the literal
        input-extension property A.1 for provably-stale input values.
    """

    name = "dmis"

    # Purity contract: ``mis`` nodes broadcast the deterministic ``(MARK,)``
    # and ``dominated`` nodes stay silent (decisions are never retracted,
    # property A.1); undecided nodes draw a fresh random value (VOLATILE).
    # A decided node's ``deliver`` only intersects its live set with the
    # inbox keys, so an unchanged inbox makes it a no-op.
    message_stability = "pure"

    def __init__(self, *, revalidate_dominated: bool = False) -> None:
        super().__init__()
        self._revalidate_dominated = revalidate_dominated
        self._state: Dict[NodeId, MisState] = {}
        self._live: Dict[NodeId, Optional[FrozenSet[NodeId]]] = {}
        self._drawn: Dict[NodeId, float] = {}
        self._needs_revalidation: set[NodeId] = set()
        self._undecided_n = 0

    def problem_pair(self) -> ProblemPair:
        return mis_problem_pair()

    # -- lifecycle -----------------------------------------------------------------

    def on_wake(self, v: NodeId) -> None:
        self._state[v] = value_to_mis_state(self.config.input_value(v))
        if self._state[v] is MisState.UNDECIDED:
            self._undecided_n += 1
        self._live[v] = None
        self._drawn[v] = float("inf")
        if self._revalidate_dominated and self._state[v] is MisState.DOMINATED:
            self._needs_revalidation.add(v)

    def compose(self, v: NodeId) -> Message:
        state = self._state[v]
        if state is MisState.MIS:
            return (MARK,)
        if state is MisState.UNDECIDED:
            value = float(self.rng(v).random())
            self._drawn[v] = value
            return (RAND, value)
        return None  # dominated nodes stay silent

    def compose_fingerprint(self, v: NodeId) -> Message:
        if v in self._needs_revalidation:
            return VOLATILE  # the pending first-round revalidation may flip the state
        state = self._state[v]
        if state is MisState.MIS:
            return (MARK,)
        if state is MisState.UNDECIDED:
            return VOLATILE
        return None

    def deliver(self, v: NodeId, inbox: Mapping[NodeId, Message]) -> None:
        live = self._live[v]
        if live is None:
            # First round of this instance: the intersection graph so far is G_j.
            live = frozenset(inbox.keys())
        else:
            live = frozenset(live & inbox.keys())
        self._live[v] = live

        if v in self._needs_revalidation:
            # Extension (see class docstring): a dominated *input* must still
            # have a dominator among the instance's first-round neighbours,
            # otherwise the value was a transient hole and is dropped.
            self._needs_revalidation.discard(v)
            has_dominator = any(
                isinstance(inbox.get(u), tuple) and inbox[u][0] == MARK for u in live
            )
            if not has_dominator:
                self._state[v] = MisState.UNDECIDED
                self._undecided_n += 1
            return

        if self._state[v] is not MisState.UNDECIDED:
            return

        mark_received = False
        min_neighbor_rand = float("inf")
        for u in live:
            message = inbox.get(u)
            if not isinstance(message, tuple):
                continue
            if message[0] == MARK:
                mark_received = True
            elif message[0] == RAND and len(message) == 2:
                if message[1] < min_neighbor_rand:
                    min_neighbor_rand = message[1]

        if mark_received:
            self._state[v] = MisState.DOMINATED
            self._undecided_n -= 1
        elif self._drawn[v] < min_neighbor_rand:
            self._state[v] = MisState.MIS
            self._undecided_n -= 1

    def output(self, v: NodeId) -> Value:
        state = self._state.get(v)
        if state is None:
            return None
        return mis_state_to_value(state)

    def as_kernel(self):
        # The revalidation extension's first-round special case is not
        # vectorised; such instances stay on the classic engine.
        if type(self) is not DMis or self._revalidate_dominated:
            return None
        from repro.kernel.base import DynamicRowKernel
        from repro.kernel.mis import DMisRows

        return lambda: DynamicRowKernel(self, DMisRows)

    # -- introspection --------------------------------------------------------------

    def state_of(self, v: NodeId) -> MisState:
        """The node's tri-state (``undecided`` if it has not woken up)."""
        return self._state.get(v, MisState.UNDECIDED)

    def live_neighbors_of(self, v: NodeId) -> frozenset[NodeId]:
        """The node's current intersection-graph neighbour set."""
        live = self._live.get(v)
        return frozenset() if live is None else live

    def undecided_count(self) -> int:
        """Number of awake nodes still undecided (maintained incrementally)."""
        return self._undecided_n

    def metrics(self) -> Mapping[str, float]:
        return {"undecided": float(self.undecided_count())}
