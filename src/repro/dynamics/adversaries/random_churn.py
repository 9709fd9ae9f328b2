"""Stochastic (oblivious) adversaries: edge churn and mobility.

Both adversaries emit :class:`~repro.dynamics.topology.TopologyDelta` change
sets relative to the previous round's graph; round 1 is the change from the
empty ``G_0``, so it adds every awake node and its edges.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

import numpy as np

from repro.types import Edge, NodeId
from repro.dynamics.adversary import Adversary, AdversaryView, FULLY_OBLIVIOUS
from repro.dynamics.churn import ChurnProcess, advance_churn
from repro.dynamics.mobility import RandomWaypointMobility
from repro.dynamics.topology import TopologyDelta
from repro.dynamics.wakeup import WakeupSchedule

__all__ = ["ChurnAdversary", "MobilityAdversary"]

_NO_NODES: FrozenSet[NodeId] = frozenset()


def _woken(awake: FrozenSet[NodeId], before: FrozenSet[NodeId]) -> FrozenSet[NodeId]:
    """The nodes of ``awake`` not in ``before`` (``awake`` contains ``before``)."""
    return awake - before if len(awake) != len(before) else _NO_NODES


class ChurnAdversary(Adversary):
    """Animates a base node set with a :class:`~repro.dynamics.churn.ChurnProcess`.

    The churn process decides which edges exist each round; the (optional)
    wake-up schedule decides which nodes are awake.  Edges touching sleeping
    nodes are dropped.  The adversary never looks at the execution, so it is
    fully oblivious (and in particular 2-oblivious, as required by the DMis
    analysis).

    The per-round Python work is proportional to the number of churned edges
    (plus, on rounds with wake-ups, one scan over the present edge set to
    attach the newly awake nodes' edges).
    """

    obliviousness = FULLY_OBLIVIOUS

    def __init__(
        self,
        nodes: int,
        churn: ChurnProcess,
        rng: np.random.Generator,
        *,
        wakeup: Optional[WakeupSchedule] = None,
    ) -> None:
        self._n = int(nodes)
        self._all_nodes = frozenset(range(self._n))
        self._churn = churn
        self._rng = rng
        self._wakeup = wakeup
        #: Churn-level present edges, maintained from the process's deltas.
        self._present: FrozenSet[Edge] = frozenset()

    def reset(self) -> None:
        self._churn.reset()
        self._present = frozenset()

    def step(self, view: AdversaryView) -> TopologyDelta:
        added, removed, self._present = advance_churn(
            self._churn, self._present, view.round_index, self._rng
        )
        old_awake = view.previous_topology().nodes
        awake = self._all_nodes
        if self._wakeup is not None:
            awake = (self._wakeup.awake_at(view.round_index) & awake) | old_awake
        newly_awake = _woken(awake, old_awake)
        # Only changes among previously awake endpoints were visible last round.
        removed_emitted = frozenset(
            e for e in removed if e[0] in old_awake and e[1] in old_awake
        )
        if newly_awake:
            added_set: Set[Edge] = {
                e for e in added if e[0] in awake and e[1] in awake
            }
            # Edges of freshly woken nodes were dropped while they slept; a
            # single scan over the present set (only on wake-up rounds)
            # attaches them now.
            for e in self._present:
                if (e[0] in newly_awake or e[1] in newly_awake) and (
                    e[0] in awake and e[1] in awake
                ):
                    added_set.add(e)
            added_emitted = frozenset(added_set)
        else:
            added_emitted = frozenset(
                e for e in added if e[0] in awake and e[1] in awake
            )
        return TopologyDelta(
            added_nodes=newly_awake,
            added_edges=added_emitted,
            removed_edges=removed_emitted,
        )

    def kernel_plan(self):
        """Array-engine plan when the churn process supports mask advance.

        Only churn processes exposing ``kernel_universe``/``kernel_advance``
        (currently :class:`~repro.dynamics.churn.MarkovEdgeChurn` and
        :class:`~repro.dynamics.churn.StaticChurn`, hence also
        :class:`~repro.dynamics.churn.FlipChurn`) qualify; those hooks consume
        the adversary RNG identically to :func:`advance_churn`, which keeps
        kernel and classic runs on a shared seed byte-identical.
        """
        churn = self._churn
        universe_of = getattr(churn, "kernel_universe", None)
        advance = getattr(churn, "kernel_advance", None)
        if universe_of is None or advance is None:
            return None
        from repro.kernel.plan import KernelPlan

        rng = self._rng
        return KernelPlan(
            nodes=self._all_nodes,
            universe_edges=universe_of(),
            advance=lambda round_index: advance(round_index, rng),
            wakeup=self._wakeup,
        )

    def describe(self) -> str:
        return f"ChurnAdversary(n={self._n}, churn={type(self._churn).__name__})"


class MobilityAdversary(Adversary):
    """Random-waypoint mobility: the graph is the geometric graph of moving nodes.

    Each round advances the mobility model, computes the new edge set and
    diffs it against the previous round with C-speed frozenset operations —
    no per-round topology construction.
    """

    obliviousness = FULLY_OBLIVIOUS

    def __init__(
        self,
        mobility: RandomWaypointMobility,
        *,
        wakeup: Optional[WakeupSchedule] = None,
    ) -> None:
        self._mobility = mobility
        self._all_nodes = frozenset(range(mobility.n))
        self._wakeup = wakeup

    def step(self, view: AdversaryView) -> TopologyDelta:
        edges = self._mobility.step_edges()
        prev = view.previous_topology()
        awake = self._all_nodes
        if self._wakeup is not None:
            awake = (self._wakeup.awake_at(view.round_index) & awake) | prev.nodes
            edges = frozenset(e for e in edges if e[0] in awake and e[1] in awake)
        return TopologyDelta(
            added_nodes=_woken(awake, prev.nodes),
            added_edges=edges - prev.edges,
            removed_edges=prev.edges - edges,
        )

    def describe(self) -> str:
        return "MobilityAdversary(random-waypoint)"
