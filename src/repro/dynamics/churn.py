"""Edge-churn processes that animate a static base topology.

The paper's "highly dynamic" setting is about the *frequency* of potential
changes, not about wholesale re-randomisation of the graph every round
(Section 1: "highly dynamic networks do not refer to a huge amount of edges
that change in every round but rather to the frequency of potential
changes").  These processes therefore perturb a base topology edge-by-edge so
that the churn *rate* is a controllable experiment parameter:

* :class:`MarkovEdgeChurn` — every base edge is an independent two-state
  Markov chain (present/absent) with configurable ``p_off``/``p_on``.
* :class:`FlipChurn` — every base edge flips its state each round with a
  fixed probability (symmetric special case of the above).
* :class:`BurstChurn` — occasional bursts delete a random fraction of the
  currently present edges for one round (models link-failure bursts).
* :class:`EdgeInsertionChurn` — repeatedly inserts a batch of random
  *non-base* edges for a configurable lifetime (models fleeting contacts).

Each process is a :class:`ChurnProcess`: it is stepped once per round and
returns the round's edge *change* ``(added, removed)`` relative to the
previous round, as in the paper's model where the adversary fixes ``G_r``
once per round and only the change from ``G_{r-1}`` matters.  ``G_0`` is
empty, so the first call returns the whole initial edge set as ``added``.
Awake-node filtering is the adversary layer's job.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

import numpy as np

from repro.types import Edge, canonical_edge
from repro.utils.validation import check_non_negative_int, check_positive_int, check_probability
from repro.dynamics.topology import Topology

__all__ = [
    "ChurnProcess",
    "EdgeDelta",
    "advance_churn",
    "StaticChurn",
    "MarkovEdgeChurn",
    "FlipChurn",
    "BurstChurn",
    "EdgeInsertionChurn",
]

#: The ``(added, removed)`` edge change of one churn round.
EdgeDelta = Tuple[FrozenSet[Edge], FrozenSet[Edge]]

_NO_EDGES: FrozenSet[Edge] = frozenset()


class ChurnProcess(ABC):
    """A per-round stochastic process producing the round's edge change.

    :meth:`step_delta` returns the ``(added, removed)`` change relative to
    the previous call; the state before the first call counts as the empty
    edge set, so the first delta carries the whole initial edge set as
    ``added``.  A delta is exact: ``added`` edges were absent and ``removed``
    edges present.
    """

    @abstractmethod
    def step_delta(self, round_index: int, rng: np.random.Generator) -> EdgeDelta:
        """Advance one round and return the ``(added, removed)`` edge change."""

    @abstractmethod
    def reset(self) -> None:
        """Return the process to its initial state (for replication)."""

    def quiescent(self) -> bool:
        """``True`` iff the process is in an *absorbing* state.

        Quiescent means: every future step provably returns an empty delta
        regardless of the RNG values drawn, so :func:`advance_churn` may skip
        the draw entirely without observable effect (the skipped values could
        only have reached this same process, whose behaviour no longer depends
        on them).  Processes that cannot prove this return ``False`` (the
        default) and are always stepped.
        """
        return False


def advance_churn(
    churn: "ChurnProcess",
    present: FrozenSet[Edge],
    round_index: int,
    rng: np.random.Generator,
) -> Tuple[FrozenSet[Edge], FrozenSet[Edge], FrozenSet[Edge]]:
    """Advance ``churn`` one round and return ``(added, removed, new_present)``.

    ``present`` is the caller-maintained edge set from the previous round.
    Shared by every adversary that drives a churn process, so the delta
    contract lives in one place.

    When the process reports itself :meth:`ChurnProcess.quiescent`, the RNG
    draw is skipped and the empty delta returned directly; byte-identical by
    the absorbing argument in :meth:`ChurnProcess.quiescent`.
    """
    if churn.quiescent():
        return _NO_EDGES, _NO_EDGES, present
    added, removed = churn.step_delta(round_index, rng)
    if removed:
        present = present - removed
    if added:
        present = present | added
    return added, removed, present


class StaticChurn(ChurnProcess):
    """No churn at all: the base edge set is returned every round."""

    def __init__(self, base: Topology) -> None:
        self._base = base
        self._primed = False
        self._all_present: Optional[np.ndarray] = None

    def step_delta(self, round_index: int, rng: np.random.Generator) -> EdgeDelta:
        if not self._primed:
            self._primed = True
            return self._base.edges, frozenset()
        return frozenset(), frozenset()

    def reset(self) -> None:
        self._primed = False

    def quiescent(self) -> bool:
        # After the priming delta there is nothing left to change.
        return self._primed

    def kernel_universe(self) -> Tuple[Edge, ...]:
        """The fixed edge universe, canonically sorted (array-kernel hook)."""
        return self._base.sorted_edges()

    def kernel_advance(self, round_index: int, rng: np.random.Generator) -> np.ndarray:
        """Presence mask over :meth:`kernel_universe` for this round.

        Returns the *same* all-true array every call so the kernel engine's
        identity short-circuit recognises the unchanged round.
        """
        if self._all_present is None:
            self._all_present = np.ones(len(self._base.edges), dtype=bool)
        self._primed = True
        return self._all_present


class MarkovEdgeChurn(ChurnProcess):
    """Independent per-edge two-state Markov chains over the base edge set.

    Each base edge is *present* or *absent*; a present edge disappears next
    round with probability ``p_off`` and an absent edge reappears with
    probability ``p_on``.  The stationary fraction of present edges is
    ``p_on / (p_on + p_off)`` (1 if both are 0).

    Parameters
    ----------
    base:
        The base topology whose edges are animated.
    p_off, p_on:
        Per-round transition probabilities.
    start_present:
        Whether edges start in the present state (default) or absent.
    """

    def __init__(
        self,
        base: Topology,
        p_off: float,
        p_on: float,
        *,
        start_present: bool = True,
    ) -> None:
        check_probability("p_off", p_off)
        check_probability("p_on", p_on)
        self._base_edges: Sequence[Edge] = base.sorted_edges()
        self._p_off = float(p_off)
        self._p_on = float(p_on)
        self._start_present = bool(start_present)
        self._present = np.full(len(self._base_edges), self._start_present, dtype=bool)
        self._num_present = len(self._base_edges) if self._start_present else 0
        self._primed = False

    @property
    def p_off(self) -> float:
        return self._p_off

    @property
    def p_on(self) -> float:
        return self._p_on

    def reset(self) -> None:
        self._present = np.full(len(self._base_edges), self._start_present, dtype=bool)
        self._num_present = len(self._base_edges) if self._start_present else 0
        self._primed = False

    def quiescent(self) -> bool:
        # Absorbing iff no transition can ever fire again: both probabilities
        # zero, or the only live transition has no edges left to act on.  The
        # priming delta (which reports the initial present set) must still be
        # emitted, hence the ``_primed`` guard.
        if not self._primed:
            return False
        if self._p_off == 0.0 and self._p_on == 0.0:
            return True
        if self._p_on == 0.0 and self._num_present == 0:
            return True
        return self._p_off == 0.0 and self._num_present == len(self._base_edges)

    def _advance(self, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        """One Markov transition; returns the (turned-on, turned-off) masks."""
        u = rng.random(len(self._base_edges))
        turn_off = self._present & (u < self._p_off)
        turn_on = (~self._present) & (u < self._p_on)
        self._present = (self._present & ~turn_off) | turn_on
        self._num_present += int(turn_on.sum()) - int(turn_off.sum())
        return turn_on, turn_off

    def kernel_universe(self) -> Tuple[Edge, ...]:
        """The base edge universe, canonically sorted (array-kernel hook)."""
        return tuple(self._base_edges)

    def kernel_advance(self, round_index: int, rng: np.random.Generator) -> np.ndarray:
        """Presence mask over :meth:`kernel_universe` for this round.

        Consumes exactly the randomness :meth:`step_delta` would (one draw of
        ``len(base_edges)`` uniforms per non-skipped round), keeping kernel
        and classic runs on a shared seed byte-identical.  The returned mask
        is a fresh array after a real transition and the *same* array object
        when the round was skipped as quiescent, matching the engine's
        identity short-circuit.
        """
        if len(self._base_edges) == 0:
            # Mirror step_delta's early return: no draw, no priming.
            return self._present
        if self.quiescent():
            return self._present
        self._advance(rng)
        self._primed = True
        return self._present

    def step_delta(self, round_index: int, rng: np.random.Generator) -> EdgeDelta:
        if len(self._base_edges) == 0:
            return frozenset(), frozenset()
        turn_on, turn_off = self._advance(rng)
        edges = self._base_edges
        if not self._primed:
            # First call: report the whole present set as added (the delta
            # contract starts from the empty edge set).
            self._primed = True
            return (
                frozenset(edges[int(i)] for i in np.nonzero(self._present)[0]),
                frozenset(),
            )
        added = frozenset(edges[int(i)] for i in np.nonzero(turn_on)[0])
        removed = frozenset(edges[int(i)] for i in np.nonzero(turn_off)[0])
        return added, removed


class FlipChurn(MarkovEdgeChurn):
    """Symmetric churn: every base edge flips its state with probability ``flip_prob``."""

    def __init__(self, base: Topology, flip_prob: float, *, start_present: bool = True) -> None:
        super().__init__(base, p_off=flip_prob, p_on=flip_prob, start_present=start_present)
        self._flip_prob = check_probability("flip_prob", flip_prob)

    @property
    def flip_prob(self) -> float:
        return self._flip_prob


class BurstChurn(ChurnProcess):
    """Deletes a random fraction of the base edges for single-round bursts.

    Between bursts the full base edge set is present.  With probability
    ``burst_prob`` per round, a fraction ``drop_fraction`` of the edges is
    removed for exactly that round.

    The process keeps only the set of edges missing this round, so the delta
    between two calm rounds is empty and costs O(1); a burst round and the
    round after it cost O(m).
    """

    def __init__(self, base: Topology, burst_prob: float, drop_fraction: float) -> None:
        check_probability("burst_prob", burst_prob)
        check_probability("drop_fraction", drop_fraction)
        self._base_edges: Sequence[Edge] = base.sorted_edges()
        self._burst_prob = float(burst_prob)
        self._drop_fraction = float(drop_fraction)
        self._dropped: FrozenSet[Edge] = _NO_EDGES
        self._primed = False

    def reset(self) -> None:
        self._dropped = _NO_EDGES
        self._primed = False

    def _draw_dropped(self, rng: np.random.Generator) -> FrozenSet[Edge]:
        """The edges missing this round: one uniform, plus the kept sample on a burst."""
        m = len(self._base_edges)
        if not m or rng.random() >= self._burst_prob:
            return _NO_EDGES
        keep = max(0, int(round(m * (1.0 - self._drop_fraction))))
        if keep >= m:
            return _NO_EDGES
        dropped = np.ones(m, dtype=bool)
        dropped[rng.choice(m, size=keep, replace=False)] = False
        edges = self._base_edges
        return frozenset(edges[int(i)] for i in np.flatnonzero(dropped))

    def step_delta(self, round_index: int, rng: np.random.Generator) -> EdgeDelta:
        dropped = self._draw_dropped(rng)
        previous, self._dropped = self._dropped, dropped
        if not self._primed:
            self._primed = True
            return frozenset(self._base_edges) - dropped, _NO_EDGES
        if not (previous or dropped):
            return _NO_EDGES, _NO_EDGES
        return previous - dropped, dropped - previous


class EdgeInsertionChurn(ChurnProcess):
    """Keeps the base edges and repeatedly inserts short-lived extra edges.

    Every round, ``insertions_per_round`` uniformly random node pairs (that
    are not base edges) are added and stay present for ``lifetime`` rounds.
    This models fleeting contacts on top of a stable backbone and is the
    workload used to probe conflict resolution (experiment E3 uses the
    *targeted* variant in :mod:`repro.dynamics.adversaries.targeted_coloring`;
    this one is oblivious).
    """

    def __init__(
        self,
        base: Topology,
        insertions_per_round: int,
        lifetime: int,
    ) -> None:
        insertions = check_non_negative_int("insertions_per_round", insertions_per_round)
        self._lifetime = check_positive_int("lifetime", lifetime)
        self._base = base
        self._nodes: Sequence[int] = tuple(sorted(base.nodes))
        self._insertions = insertions
        self._active: Dict[Edge, int] = {}
        self._primed = False

    def reset(self) -> None:
        self._active.clear()
        self._primed = False

    def _advance(
        self, round_index: int, rng: np.random.Generator
    ) -> Tuple[Set[Edge], Set[Edge]]:
        """Expire and insert; returns (expired edges, freshly inserted edges)."""
        expired = {e for e, expiry in self._active.items() if expiry <= round_index}
        for e in expired:
            del self._active[e]
        fresh: Set[Edge] = set()
        n = len(self._nodes)
        if n >= 2:
            for _ in range(self._insertions):
                u, v = rng.choice(n, size=2, replace=False)
                e = canonical_edge(self._nodes[int(u)], self._nodes[int(v)])
                if e in self._base.edges:
                    continue
                if e not in self._active:
                    fresh.add(e)
                self._active[e] = round_index + self._lifetime
        return expired, fresh

    def step_delta(self, round_index: int, rng: np.random.Generator) -> EdgeDelta:
        expired, fresh = self._advance(round_index, rng)
        if not self._primed:
            self._primed = True
            return frozenset(self._base.edges) | frozenset(self._active), frozenset()
        # An edge that expired and was re-inserted in the same round never
        # left the edge set, so it belongs in neither side of the delta.
        added = frozenset(e for e in fresh if e not in expired)
        removed = frozenset(e for e in expired if e not in self._active)
        return added, removed
