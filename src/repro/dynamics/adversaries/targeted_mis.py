"""Adaptive adversaries that attack an MIS computation.

The remark after Lemma 5.2 points out that DMis's progress analysis needs a
2-oblivious adversary: an adversary that reacts to the very latest state can
cut the edges over which freshly joined MIS nodes would notify their
neighbours, or join two MIS nodes to force SMis to un-decide them.

Two attack modes are provided:

* ``"cut_notification"`` — delete (for one round) every base edge between a
  node that just joined the MIS and its still-undecided neighbours, so the
  mark cannot be delivered.  This targets DMis's progress argument.
* ``"join_mis"`` — insert edges between pairs of current MIS nodes, forcing
  SMis nodes to leave the MIS (they both receive marks) and challenging the
  stability of any MIS maintenance scheme.

Both are declared 1-oblivious (they use outputs of round ``r - 1``), i.e.
strictly stronger than the 2-oblivious adversary DMis is analysed against —
which is exactly the point of experiment E10.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.types import Edge, NodeId, canonical_edge
from repro.utils.validation import check_non_negative_int, check_positive_int
from repro.dynamics.adversary import Adversary, AdversaryView
from repro.dynamics.topology import Topology, TopologyDelta

__all__ = ["TargetedMisAdversary", "check_mode"]

_MODES = ("cut_notification", "join_mis")


def check_mode(name: str, value: Any) -> str:
    """Validate that ``value`` is one of the attack modes and return it."""
    if not isinstance(value, str) or value not in _MODES:
        raise ConfigurationError(f"{name} must be one of {_MODES}, got {value!r}")
    return value


class TargetedMisAdversary(Adversary):
    """Adaptive attacker against MIS algorithms.

    Parameters
    ----------
    base:
        Backbone topology that is otherwise always present.
    mode:
        One of ``"cut_notification"`` or ``"join_mis"`` (see module docstring).
    attacks_per_round:
        Maximum number of edges cut / inserted per round.
    lifetime:
        For ``"join_mis"``: how many rounds an inserted edge persists.
        For ``"cut_notification"``: how many rounds a cut lasts.
    rng:
        Randomness used to pick among candidate attack edges.
    """

    obliviousness = 1

    def __init__(
        self,
        base: Topology,
        mode: str,
        attacks_per_round: int,
        rng: np.random.Generator,
        *,
        lifetime: int = 1,
    ) -> None:
        self._base = base
        self._mode = check_mode("mode", mode)
        self._attacks = check_non_negative_int("attacks_per_round", attacks_per_round)
        self._lifetime = check_positive_int("lifetime", lifetime)
        self._rng = rng
        self._inserted: Dict[Edge, int] = {}
        self._cut: Dict[Edge, int] = {}
        #: Log of (round, action, edge), consumed by experiment E10.
        self.attack_log: List[Tuple[int, str, Edge]] = []
        #: the output vector the last attack was chosen from (the trace owns it)
        self._attacked_outputs = None

    def reset(self) -> None:
        self._inserted.clear()
        self._cut.clear()
        self.attack_log.clear()
        self._attacked_outputs = None

    # -- candidate selection ----------------------------------------------------

    def _mis_nodes(self, outputs) -> List[NodeId]:
        return sorted(v for v, value in outputs.items() if value == 1)

    def _undecided_nodes(self, outputs) -> set[NodeId]:
        return {v for v, value in outputs.items() if value is None}

    def _fresh_mis_nodes(self, outputs) -> List[NodeId]:
        """MIS nodes that were not MIS nodes in the previous visible output."""
        if self._attacked_outputs is None:
            return self._mis_nodes(outputs)
        before = {v for v, value in self._attacked_outputs.items() if value == 1}
        return sorted(v for v, value in outputs.items() if value == 1 and v not in before)

    def _cut_candidates(self, outputs) -> List[Edge]:
        undecided = self._undecided_nodes(outputs)
        fresh = self._fresh_mis_nodes(outputs)
        candidates: List[Edge] = []
        for v in fresh:
            for u in self._base.neighbors(v):
                if u in undecided:
                    candidates.append(canonical_edge(u, v))
        return candidates

    def _join_candidates(self, outputs) -> List[Edge]:
        mis = self._mis_nodes(outputs)
        candidates: List[Edge] = []
        if len(mis) < 2:
            return candidates
        limit = min(64, len(mis) * (len(mis) - 1) // 2)
        for _ in range(limit):
            i, j = self._rng.choice(len(mis), size=2, replace=False)
            e = canonical_edge(mis[int(i)], mis[int(j)])
            if e not in self._base.edges and e not in self._inserted:
                candidates.append(e)
        return candidates

    # -- Adversary interface ------------------------------------------------------

    def step(self, view: AdversaryView) -> TopologyDelta:
        r = view.round_index
        expired_inserted = [e for e, expiry in self._inserted.items() if expiry < r]
        for e in expired_inserted:
            del self._inserted[e]
        expired_cut = [e for e, expiry in self._cut.items() if expiry < r]
        for e in expired_cut:
            del self._cut[e]

        fresh_cut: List[Edge] = []
        fresh_inserted: List[Edge] = []
        outputs = view.latest_visible_outputs()
        if outputs and self._attacks > 0:
            if self._mode == "cut_notification":
                candidates = self._cut_candidates(outputs)
                self._rng.shuffle(candidates)
                for e in candidates[: self._attacks]:
                    if e not in self._cut:
                        fresh_cut.append(e)
                    self._cut[e] = r + self._lifetime - 1
                    self.attack_log.append((r, "cut", e))
            else:  # join_mis
                candidates = self._join_candidates(outputs)
                self._rng.shuffle(candidates)
                for e in candidates[: self._attacks]:
                    if e not in self._inserted:
                        fresh_inserted.append(e)
                    self._inserted[e] = r + self._lifetime - 1
                    self.attack_log.append((r, "insert", e))
            self._attacked_outputs = outputs

        if r == 1:
            # G_0 is empty and no output is visible yet: the backbone arrives.
            return TopologyDelta(added_nodes=self._base.nodes, added_edges=self._base.edges)
        # Inserted edges are never base edges and cut edges always are, so the
        # two books cannot collide.  An edge that expired and was re-attacked
        # in the same round never changed state and stays out of the delta.
        expired_cut_set = set(expired_cut)
        expired_inserted_set = set(expired_inserted)
        added = frozenset(
            [e for e in expired_cut if e not in self._cut]
            + [e for e in fresh_inserted if e not in expired_inserted_set]
        )
        removed = frozenset(
            [e for e in expired_inserted if e not in self._inserted]
            + [e for e in fresh_cut if e not in expired_cut_set]
        )
        return TopologyDelta(added_edges=added, removed_edges=removed)

    def describe(self) -> str:
        return f"TargetedMisAdversary(mode={self._mode}, attacks={self._attacks})"
