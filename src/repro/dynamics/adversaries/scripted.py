"""Oblivious adversaries that replay pre-computed graph sequences.

These stay on the snapshot side of the :meth:`~repro.dynamics.adversary.Adversary.step`
contract: their topologies are precomputed objects, so re-returning them costs
nothing — and when the *same* object is returned twice in a row the simulator
recognises it as an empty delta and stores the round incrementally anyway.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import AdversaryError
from repro.dynamics.adversary import Adversary, AdversaryView, FULLY_OBLIVIOUS
from repro.dynamics.topology import Topology
from repro.dynamics.wakeup import AllAwake, WakeupSchedule

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
        self._topologies = tuple(topologies)
        self._repeat_last = repeat_last

    def step(self, view: AdversaryView) -> Topology:
        index = view.round_index - 1
        if index < len(self._topologies):
            return self._topologies[index]
        if self._repeat_last:
            return self._topologies[-1]
        raise AdversaryError(
            f"script exhausted: round {view.round_index} > {len(self._topologies)} scripted rounds"
        )

    def describe(self) -> str:
        return f"ScriptedAdversary(len={len(self._topologies)})"


class StaticAdversary(Adversary):
    """Keeps a single topology forever (optionally with gradual wake-up).

    With a wake-up schedule the round-``r`` graph is the base topology induced
    on the currently awake nodes; without one, the base graph is returned
    unchanged every round — the classic *static network* special case in which
    the dynamic guarantees must collapse to the static ones.
    """

    obliviousness = FULLY_OBLIVIOUS

    def __init__(self, base: Topology, *, wakeup: Optional[WakeupSchedule] = None) -> None:
        self._base = base
        self._wakeup = wakeup if wakeup is not None else AllAwake(0)
        self._use_wakeup = wakeup is not None

    def step(self, view: AdversaryView) -> Topology:
        if not self._use_wakeup:
            return self._base
        awake = self._wakeup.awake_at(view.round_index) & self._base.nodes
        return self._base.subgraph(awake)

    def kernel_plan(self):
        """Array-engine plan: fixed universe, constant all-present mask.

        The same mask object is returned every round so the engine's identity
        short-circuit recognises fully-static rounds; wake-up filtering is the
        engine's job (``cumulative_awake=False`` reproduces the exact
        ``awake_at(r) & base.nodes`` induced-subgraph semantics of
        :meth:`step`).
        """
        from repro.kernel.plan import KernelPlan

        mask = np.ones(self._base.num_edges, dtype=bool)
        return KernelPlan(
            nodes=self._base.nodes,
            universe_edges=self._base.sorted_edges(),
            advance=lambda round_index: mask,
            wakeup=self._wakeup if self._use_wakeup else None,
            cumulative_awake=False,
        )

    def describe(self) -> str:
        return f"StaticAdversary(n={self._base.num_nodes}, m={self._base.num_edges})"
