"""Adaptive adversary that inserts conflict edges against the current colouring.

This is the natural worst-case workload for Corollary 1.2: the guarantee says
that after two nodes are joined by a new edge they may share a colour for at
most ``T = O(log n)`` rounds.  The adversary therefore watches the most recent
output it is allowed to see, picks pairs of *same-coloured, currently
non-adjacent* nodes, and joins them for ``lifetime`` rounds.

DColor / SColor are analysed for an adaptive offline adversary (remark at the
end of Section 4.3), so this attacker is legal for the colouring algorithms;
its declared obliviousness is 1 (it uses outputs of round ``r - 1``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.types import Edge, NodeId, canonical_edge
from repro.utils.validation import check_non_negative_int, check_positive_int
from repro.dynamics.adversary import Adversary, AdversaryView
from repro.dynamics.topology import Topology, TopologyDelta

__all__ = ["TargetedColoringAdversary"]


class TargetedColoringAdversary(Adversary):
    """Insert up to ``attacks_per_round`` monochromatic edges each round.

    Parameters
    ----------
    base:
        Backbone topology that is always present.
    attacks_per_round:
        Number of conflict edges inserted per round (best effort: fewer if
        not enough same-coloured non-adjacent pairs exist).
    lifetime:
        Number of rounds each inserted edge persists.
    rng:
        Randomness used to pick among candidate conflict pairs.
    color_of:
        Optional projection applied to a node's output value to obtain its
        colour (identity by default).  The combined algorithms output plain
        colours so the default is almost always right.
    """

    obliviousness = 1

    def __init__(
        self,
        base: Topology,
        attacks_per_round: int,
        lifetime: int,
        rng: np.random.Generator,
        *,
        color_of=None,
    ) -> None:
        self._base = base
        self._attacks = check_non_negative_int("attacks_per_round", attacks_per_round)
        self._lifetime = check_positive_int("lifetime", lifetime)
        self._rng = rng
        self._color_of = color_of if color_of is not None else (lambda value: value)
        self._active: Dict[Edge, int] = {}
        #: Log of (round, edge) conflict insertions, consumed by experiment E3.
        self.attack_log: List[Tuple[int, Edge]] = []

    def reset(self) -> None:
        self._active.clear()
        self.attack_log.clear()

    # -- helpers -------------------------------------------------------------

    def _conflict_candidates(
        self, outputs, current_edges: frozenset[Edge]
    ) -> List[Edge]:
        by_color: Dict[object, List[NodeId]] = {}
        for v, value in outputs.items():
            if value is None:
                continue
            color = self._color_of(value)
            if color is None:
                continue
            by_color.setdefault(color, []).append(v)
        candidates: List[Edge] = []
        for color, nodes in by_color.items():
            if len(nodes) < 2:
                continue
            nodes_sorted = sorted(nodes)
            # Sample a bounded number of pairs per colour class to keep the
            # per-round cost linear-ish even for large colour classes.
            limit = min(32, len(nodes_sorted) * (len(nodes_sorted) - 1) // 2)
            for _ in range(limit):
                i, j = self._rng.choice(len(nodes_sorted), size=2, replace=False)
                e = canonical_edge(nodes_sorted[int(i)], nodes_sorted[int(j)])
                if e not in current_edges and e not in self._active:
                    candidates.append(e)
        return candidates

    # -- Adversary interface ---------------------------------------------------

    def step(self, view: AdversaryView) -> TopologyDelta:
        r = view.round_index
        expired = [e for e, expiry in self._active.items() if expiry < r]
        for e in expired:
            del self._active[e]

        outputs = view.latest_visible_outputs()
        current = frozenset(self._base.edges) | frozenset(self._active)
        attacked: List[Edge] = []
        if outputs and self._attacks > 0:
            candidates = self._conflict_candidates(outputs, current)
            self._rng.shuffle(candidates)
            for e in candidates[: self._attacks]:
                self._active[e] = r + self._lifetime - 1
                self.attack_log.append((r, e))
                attacked.append(e)
        if r == 1:
            # G_0 is empty and no output is visible yet: the backbone arrives.
            return TopologyDelta(added_nodes=self._base.nodes, added_edges=self._base.edges)
        # An edge that expired and was re-attacked in the same round never
        # left the graph; keep it out of both sides of the delta.
        expired_set = set(expired)
        return TopologyDelta(
            added_edges=frozenset(e for e in attacked if e not in expired_set),
            removed_edges=frozenset(e for e in expired if e not in self._active),
        )

    def describe(self) -> str:
        return (
            f"TargetedColoringAdversary(attacks={self._attacks}, "
            f"lifetime={self._lifetime})"
        )
