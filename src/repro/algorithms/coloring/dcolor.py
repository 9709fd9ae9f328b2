"""Algorithm 2: ``DColor`` — the O(log n)-dynamic colouring algorithm.

``DColor`` is the basic randomized colouring with two changes that make it a
``T``-dynamic algorithm (Definition 3.3, A.1/A.2):

* **Communication is restricted to the running intersection graph**: a node
  only listens to neighbours that have been its neighbours in *every* round
  since this instance started.  Edges the adversary inserts later are ignored,
  so the adversary can never force a colour out of a node's palette through a
  new edge, which is what keeps the palette larger than the number of
  uncoloured (intersection-)neighbours (Lemma 4.2) and yields the
  ``O(log n)`` completion time (Lemma 4.4).
* **Colours are only ever removed from the palette** (never re-added) and a
  node that has fixed its colour keeps it forever, which is exactly property
  A.1 (input-extending).

The instance's *start round* is a communication round: the node broadcasts its
input colour, learns its start-round neighbourhood and degree, and initialises
its palette to ``[d_j(v) + 1]`` minus the input colours of its neighbours.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from repro.types import Color, NodeId, Value
from repro.problems.coloring import coloring_problem_pair
from repro.problems.packing_covering import ProblemPair
from repro.runtime.algorithm import VOLATILE
from repro.runtime.messages import Message
from repro.core.interfaces import DynamicAlgorithm

__all__ = ["DColor"]

INIT = "init"
FIXED = "fixed"
TENTATIVE = "tent"


class DColor(DynamicAlgorithm):
    """Algorithm 2 (dynamic colouring on the running intersection graph).

    Parameters
    ----------
    restrict_to_intersection:
        When false, the algorithm listens to *all* current neighbours instead
        of only intersection-graph neighbours.  This switch exists solely for
        the ablation experiment E13a (see
        :class:`repro.algorithms.coloring.ablations.DColorCurrentGraphAblation`);
        the paper's algorithm corresponds to the default ``True``.
    """

    name = "dcolor"

    # Purity contract: a node with a fixed colour broadcasts the
    # deterministic ``(FIXED, c)`` forever (colours are never retracted,
    # property A.1); uncoloured nodes draw fresh randomness (VOLATILE).
    # ``deliver`` only shrinks the live set / palette from the inbox, so an
    # unchanged inbox plus an unchanged message make it a no-op.
    message_stability = "pure"

    def __init__(self, *, restrict_to_intersection: bool = True) -> None:
        super().__init__()
        self._restrict = restrict_to_intersection
        self._color: Dict[NodeId, Optional[Color]] = {}
        self._palette: Dict[NodeId, Set[Color]] = {}
        self._tentative: Dict[NodeId, Optional[Color]] = {}
        self._live: Dict[NodeId, Optional[FrozenSet[NodeId]]] = {}
        self._started: Dict[NodeId, bool] = {}
        self._uncolored_count = 0

    def problem_pair(self) -> ProblemPair:
        return coloring_problem_pair()

    # -- lifecycle --------------------------------------------------------------------

    def on_wake(self, v: NodeId) -> None:
        self._color[v] = self.config.input_value(v)
        if self._color[v] is None:
            self._uncolored_count += 1
        self._palette[v] = set()
        self._tentative[v] = None
        self._live[v] = None
        self._started[v] = False

    def compose(self, v: NodeId) -> Message:
        if not self._started[v]:
            # Start round: broadcast the input colour (⊥ encoded as None).
            return (INIT, self._color[v])
        color = self._color[v]
        if color is not None:
            return (FIXED, color)
        choice = self._pick_uniform(v, self._palette[v])
        self._tentative[v] = choice
        return (TENTATIVE, choice)

    def compose_fingerprint(self, v: NodeId) -> Message:
        if not self._started[v]:
            return VOLATILE  # the start-round broadcast happens exactly once
        color = self._color[v]
        return (FIXED, color) if color is not None else VOLATILE

    def deliver(self, v: NodeId, inbox: Mapping[NodeId, Message]) -> None:
        if not self._started[v]:
            self._deliver_start(v, inbox)
            return

        live = self._live[v]
        assert live is not None
        if self._restrict:
            live = live.intersection(inbox)
            self._live[v] = live
            messages: Iterable[Message] = map(inbox.__getitem__, live)
        else:
            messages = inbox.values()

        palette = self._palette[v]
        choice = self._tentative[v] if self._color[v] is None else None
        clash = False
        for message in messages:
            if not isinstance(message, tuple) or len(message) != 2:
                continue
            tag, value = message
            if value is None:
                continue
            if tag == TENTATIVE:
                if value == choice:
                    clash = True
            elif tag == FIXED or tag == INIT:
                # Line 5: the palette only shrinks.
                palette.discard(value)

        if choice is not None and not clash and choice in palette:
            self._color[v] = choice
            self._uncolored_count -= 1

    def _deliver_start(self, v: NodeId, inbox: Mapping[NodeId, Message]) -> None:
        """The start communication round: learn neighbours, initialise the palette."""
        self._live[v] = frozenset(inbox.keys())
        if self._color[v] is None:
            neighbor_fixed = {
                message[1]
                for message in inbox.values()
                if isinstance(message, tuple) and len(message) == 2
                and message[0] in (INIT, FIXED) and message[1] is not None
            }
            degree = len(inbox)
            self._palette[v] = set(range(1, degree + 2)) - neighbor_fixed
        self._started[v] = True

    def output(self, v: NodeId) -> Value:
        return self._color.get(v)

    def as_kernel(self):
        # the current-graph ablation listens past the intersection graph,
        # which the kernel's live sets do not model
        if type(self) is not DColor or not self._restrict:
            return None
        from repro.kernel.base import DynamicRowKernel
        from repro.kernel.coloring import DColorRows

        return lambda: DynamicRowKernel(self, DColorRows)

    # -- helpers -----------------------------------------------------------------------

    def _pick_uniform(self, v: NodeId, palette: Set[Color]) -> Optional[Color]:
        if not palette:
            return None
        ordered = sorted(palette)
        index = int(self.rng(v).integers(0, len(ordered)))
        return ordered[index]

    def palette_of(self, v: NodeId) -> frozenset[Color]:
        """The node's current palette (exposed for the Lemma 4.3 experiment E2)."""
        return frozenset(self._palette.get(v, ()))

    def live_neighbors_of(self, v: NodeId) -> frozenset[NodeId]:
        """The node's current intersection-graph neighbour set."""
        live = self._live.get(v)
        return frozenset() if live is None else live

    def metrics(self) -> Mapping[str, float]:
        # Maintained transition-by-transition so quiescent rounds stay O(#active).
        return {"uncolored": float(self._uncolored_count)}
