"""Oblivious adversaries that replay pre-computed graph sequences.

Like every adversary they emit one :class:`~repro.dynamics.topology.TopologyDelta`
per round.  :class:`ScriptedAdversary` diffs its script once, at construction;
:class:`StaticAdversary` adds its base graph in round 1 (or, under a wake-up
schedule, each node as it wakes, with its base edges to awake nodes) and
changes nothing afterwards.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import AdversaryError
from repro.types import canonical_edge
from repro.dynamics.adversary import Adversary, AdversaryView, FULLY_OBLIVIOUS
from repro.dynamics.topology import EMPTY_DELTA, Topology, TopologyDelta, empty_topology
from repro.dynamics.wakeup import WakeupSchedule

__all__ = ["ScriptedAdversary", "StaticAdversary"]


class ScriptedAdversary(Adversary):
    """Replays a fixed list of topologies; fully oblivious by construction.

    Parameters
    ----------
    topologies:
        The graphs ``G_1, G_2, …``; if the run is longer than the script, the
        behaviour is controlled by ``repeat_last``.
    repeat_last:
        If true (default) the last topology is repeated forever once the
        script is exhausted; otherwise running past the script raises.
    """

    obliviousness = FULLY_OBLIVIOUS

    def __init__(self, topologies: Sequence[Topology], *, repeat_last: bool = True) -> None:
        if not topologies:
            raise AdversaryError("ScriptedAdversary needs at least one topology")
        previous = [empty_topology(), *topologies[:-1]]
        self._deltas = tuple(map(TopologyDelta.between, previous, topologies))
        self._repeat_last = repeat_last

    def step(self, view: AdversaryView) -> TopologyDelta:
        index = view.round_index - 1
        if index < len(self._deltas):
            return self._deltas[index]
        if self._repeat_last:
            return EMPTY_DELTA
        raise AdversaryError(
            f"script exhausted: round {view.round_index} > {len(self._deltas)} scripted rounds"
        )

    def describe(self) -> str:
        return f"ScriptedAdversary(len={len(self._deltas)})"


class StaticAdversary(Adversary):
    """Keeps a single topology forever (optionally with gradual wake-up).

    With a wake-up schedule the round-``r`` graph is the base topology induced
    on the currently awake nodes; without one, the base graph is unchanged
    every round — the classic *static network* special case in which the
    dynamic guarantees must collapse to the static ones.
    """

    obliviousness = FULLY_OBLIVIOUS

    def __init__(self, base: Topology, *, wakeup: Optional[WakeupSchedule] = None) -> None:
        self._base = base
        self._wakeup = wakeup

    def step(self, view: AdversaryView) -> TopologyDelta:
        base = self._base
        if self._wakeup is None:
            if view.round_index > 1:
                return EMPTY_DELTA
            return TopologyDelta(added_nodes=base.nodes, added_edges=base.edges)
        before = view.previous_topology().nodes
        woken = (self._wakeup.awake_at(view.round_index) & base.nodes) - before
        if not woken:
            return EMPTY_DELTA
        awake = before | woken
        edges = frozenset(
            canonical_edge(v, u) for v in woken for u in base.neighbors(v) if u in awake
        )
        return TopologyDelta(added_nodes=woken, added_edges=edges)

    def kernel_plan(self):
        """Array-engine plan: fixed universe, constant all-present mask.

        The same mask object is returned every round so the engine's identity
        short-circuit recognises fully-static rounds; wake-up filtering is the
        engine's job (it accumulates ``awake_at(r) & base.nodes`` exactly as
        :meth:`step` does).
        """
        from repro.kernel.plan import KernelPlan

        mask = np.ones(self._base.num_edges, dtype=bool)
        return KernelPlan(
            nodes=self._base.nodes,
            universe_edges=self._base.sorted_edges(),
            advance=lambda round_index: mask,
            wakeup=self._wakeup,
        )

    def describe(self) -> str:
        return f"StaticAdversary(n={self._base.num_nodes}, m={self._base.num_edges})"
