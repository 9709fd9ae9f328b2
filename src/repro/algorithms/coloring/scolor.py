"""Algorithm 3: ``SColor`` — the (O(log n), 2)-network-static colouring algorithm.

``SColor`` is the basic randomized colouring run on the *current* graph
``G_r`` with one extra rule: a coloured node whose colour is no longer in its
(freshly recomputed) palette **uncolours itself**.  That happens exactly when
the node became adjacent to a neighbour with the same fixed colour or its
degree dropped below its colour — i.e. whenever its own LCL condition for the
pair ``(C_P, C_C)`` is violated — which is what makes the per-round output a
partial solution for the current graph (property B.1, Lemma 4.5).

If the 2-neighbourhood of a node is static, neither the node nor its
neighbours ever uncolour themselves and the node is coloured within
``O(log n)`` rounds w.h.p. (property B.2), by the same argument as the static
algorithm (Lemma 6.1/6.2).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Set

from repro.types import Color, NodeId, Value
from repro.problems.coloring import coloring_problem_pair
from repro.problems.packing_covering import ProblemPair
from repro.runtime.algorithm import VOLATILE
from repro.runtime.messages import Message
from repro.core.interfaces import NetworkStaticAlgorithm

__all__ = ["SColor"]

FIXED = "fixed"
TENTATIVE = "tent"


class SColor(NetworkStaticAlgorithm):
    """Algorithm 3 (network-static colouring with the un-colouring rule)."""

    name = "scolor"
    alpha = 2

    # Purity contract: coloured nodes broadcast the deterministic
    # ``(FIXED, c)``; uncoloured nodes draw a fresh tentative colour
    # (VOLATILE).  ``deliver`` recomputes palette/uncolouring purely from the
    # inbox and the node's own last message, so an unchanged inbox plus an
    # unchanged message make it a no-op (the un-colouring rule fires only
    # when the inbox actually changed).
    message_stability = "pure"

    def __init__(self, *, uncolor_enabled: bool = True) -> None:
        super().__init__()
        self._uncolor_enabled = uncolor_enabled
        self._color: Dict[NodeId, Optional[Color]] = {}
        self._palette: Dict[NodeId, Set[Color]] = {}
        self._tentative: Dict[NodeId, Optional[Color]] = {}
        self._uncolor_events = 0
        self._uncolored_count = 0

    def problem_pair(self) -> ProblemPair:
        return coloring_problem_pair()

    # -- lifecycle -----------------------------------------------------------------

    def on_wake(self, v: NodeId) -> None:
        self._color[v] = self.config.input_value(v)
        if self._color[v] is None:
            self._uncolored_count += 1
        self._palette[v] = {1}
        self._tentative[v] = None

    def compose(self, v: NodeId) -> Message:
        color = self._color[v]
        if color is not None:
            return (FIXED, color)
        palette = self._palette[v]
        choice = self._pick_uniform(v, palette)
        self._tentative[v] = choice
        return (TENTATIVE, choice)

    def compose_fingerprint(self, v: NodeId) -> Message:
        color = self._color[v]
        return (FIXED, color) if color is not None else VOLATILE

    def deliver(self, v: NodeId, inbox: Mapping[NodeId, Message]) -> None:
        fixed: Set[Color] = set()
        tentative: Set[Color] = set()
        for message in inbox.values():
            if not isinstance(message, tuple) or len(message) != 2:
                continue
            tag, value = message
            if tag == FIXED:
                fixed.add(value)
            elif tag == TENTATIVE:
                tentative.add(value)
        degree = len(inbox)
        self._palette[v] = set(range(1, degree + 2)) - fixed
        if self._color[v] is None:
            choice = self._tentative[v]
            if choice is not None and choice in self._palette[v] and choice not in tentative:
                self._color[v] = choice
                self._uncolored_count -= 1
        elif self._uncolor_enabled and self._color[v] not in self._palette[v]:
            # Line 10: the colour clashes with a neighbour or exceeds deg+1.
            self._color[v] = None
            self._uncolor_events += 1
            self._uncolored_count += 1

    def output(self, v: NodeId) -> Value:
        return self._color.get(v)

    def as_kernel(self):
        # the un-colour ablation is the same kernel with the rule switched off
        from repro.algorithms.coloring.ablations import SColorNoUncolorAblation

        if type(self) not in (SColor, SColorNoUncolorAblation):
            return None
        from repro.kernel.coloring import ColoringKernel

        return lambda: ColoringKernel(
            self,
            uncolor_enabled=self._uncolor_enabled,
            track_uncolor_events=True,
        )

    # -- helpers ---------------------------------------------------------------------

    def _pick_uniform(self, v: NodeId, palette: Set[Color]) -> Optional[Color]:
        if not palette:
            return None
        ordered = sorted(palette)
        index = int(self.rng(v).integers(0, len(ordered)))
        return ordered[index]

    def palette_of(self, v: NodeId) -> frozenset[Color]:
        """The node's current palette (exposed for analysis)."""
        return frozenset(self._palette.get(v, ()))

    def metrics(self) -> Mapping[str, float]:
        # Maintained transition-by-transition so quiescent rounds stay O(#active).
        return {
            "uncolored": float(self._uncolored_count),
            "uncolor_events": float(self._uncolor_events),
        }
