"""Stochastic (oblivious) adversaries: edge churn and mobility.

Both adversaries emit :class:`~repro.dynamics.topology.TopologyDelta` change
sets, with a full snapshot only where the delta chain is broken: on round 1
(see :class:`~repro.dynamics.adversary.IncrementalAdversary`).
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Set

import numpy as np

from repro.types import Edge, NodeId
from repro.dynamics.adversary import (
    AdversaryView,
    FULLY_OBLIVIOUS,
    IncrementalAdversary,
    StepResult,
)
from repro.dynamics.churn import ChurnProcess, advance_churn
from repro.dynamics.mobility import RandomWaypointMobility
from repro.dynamics.topology import Topology, TopologyDelta
from repro.dynamics.wakeup import WakeupSchedule

__all__ = ["ChurnAdversary", "MobilityAdversary"]

_NO_EDGES: FrozenSet[Edge] = frozenset()
_NO_NODES: FrozenSet[NodeId] = frozenset()


class ChurnAdversary(IncrementalAdversary):
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
        super().__init__()
        self._n = int(nodes)
        self._all_nodes = frozenset(range(self._n))
        self._churn = churn
        self._rng = rng
        self._wakeup = wakeup
        #: Churn-level present edges, maintained from the process's deltas.
        self._present: FrozenSet[Edge] = frozenset()

    def reset(self) -> None:
        super().reset()
        self._churn.reset()
        self._present = frozenset()

    def step(self, view: AdversaryView) -> StepResult:
        chain_intact = self._delta_chain_intact(view)
        added, removed, self._present = advance_churn(
            self._churn, self._present, view.round_index, self._rng
        )

        if self._wakeup is None:
            awake = self._all_nodes
        else:
            awake = self._wakeup.awake_at(view.round_index) & self._all_nodes
            prev = view.previous_topology()
            if prev is not None:
                awake = awake | prev.nodes

        if not chain_intact:
            kept = [e for e in self._present if e[0] in awake and e[1] in awake]
            return Topology(awake, kept)

        old_awake = view.previous_topology().nodes
        if self._wakeup is None:
            # Every node has been awake since round 1.
            newly_awake = _NO_NODES
        else:
            newly_awake = awake - old_awake
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
            cumulative_awake=True,
        )

    def describe(self) -> str:
        return f"ChurnAdversary(n={self._n}, churn={type(self._churn).__name__})"


class MobilityAdversary(IncrementalAdversary):
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
        super().__init__()
        self._mobility = mobility
        self._all_nodes = frozenset(range(mobility.n))
        self._wakeup = wakeup

    def step(self, view: AdversaryView) -> StepResult:
        chain_intact = self._delta_chain_intact(view)
        edges = self._mobility.step_edges()

        if self._wakeup is None:
            awake = self._all_nodes
            emitted = edges
        else:
            awake = self._wakeup.awake_at(view.round_index) & self._all_nodes
            prev = view.previous_topology()
            if prev is not None:
                awake = awake | prev.nodes
            emitted = frozenset(e for e in edges if e[0] in awake and e[1] in awake)

        if not chain_intact:
            return Topology(awake, emitted)

        prev = view.previous_topology()
        newly_awake = _NO_NODES if self._wakeup is None else awake - prev.nodes
        return TopologyDelta(
            added_nodes=newly_awake,
            added_edges=emitted - prev.edges,
            removed_edges=prev.edges - emitted,
        )

    def describe(self) -> str:
        return "MobilityAdversary(random-waypoint)"
