"""Wake-up schedules for asynchronous node activation (Section 2).

The model lets nodes wake up gradually: ``V_r`` is the set of nodes awake in
round ``r`` and is non-decreasing.  A :class:`WakeupSchedule` answers "which
nodes are awake in round r"; adversaries intersect their edge processes with
the awake set so sleeping nodes stay isolated.

All shipped algorithms are single-round-type ("pipelined", see Section 7.2),
so they support any schedule produced here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet

import numpy as np

from repro.errors import ConfigurationError
from repro.types import NodeId, Round
from repro.utils.validation import check_positive_int

__all__ = [
    "WakeupSchedule",
    "AllAwake",
    "StaggeredWakeup",
    "UniformRandomWakeup",
]


class WakeupSchedule(ABC):
    """Maps a round index to the set of awake nodes (must be non-decreasing)."""

    @abstractmethod
    def awake_at(self, round_index: Round) -> FrozenSet[NodeId]:
        """Return ``V_r`` for the given round (rounds start at 1)."""

    def wake_round(self, node: NodeId, max_round: int = 10_000) -> int | None:
        """First round in which ``node`` is awake, or ``None`` if never (searched up to ``max_round``)."""
        for r in range(1, max_round + 1):
            if node in self.awake_at(r):
                return r
        return None


class AllAwake(WakeupSchedule):
    """Every node ``0 … n-1`` is awake from round 1 (the default)."""

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        self._nodes = frozenset(range(n))

    def awake_at(self, round_index: Round) -> FrozenSet[NodeId]:
        return self._nodes if round_index >= 1 else frozenset()


class StaggeredWakeup(WakeupSchedule):
    """Nodes wake up in contiguous batches of ``batch_size`` every ``interval`` rounds.

    Node ids wake in increasing order: nodes ``0 … batch_size-1`` in round 1,
    the next batch in round ``1 + interval``, and so on.
    """

    def __init__(self, n: int, batch_size: int, interval: int = 1) -> None:
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self._n = n
        self._batch = batch_size
        self._interval = check_positive_int("interval", interval)

    def awake_at(self, round_index: Round) -> FrozenSet[NodeId]:
        if round_index < 1:
            return frozenset()
        batches = 1 + (round_index - 1) // self._interval
        return frozenset(range(min(self._n, batches * self._batch)))


class UniformRandomWakeup(WakeupSchedule):
    """Every node wakes at a uniformly random round in ``[1, spread]`` (fixed at construction)."""

    def __init__(self, n: int, spread: int, rng: np.random.Generator) -> None:
        if n < 0:
            raise ConfigurationError(f"n must be >= 0, got {n}")
        if spread < 1:
            raise ConfigurationError(f"spread must be >= 1, got {spread}")
        rounds = rng.integers(1, spread + 1, size=n)
        self._wake_round: Dict[NodeId, int] = {v: int(rounds[v]) for v in range(n)}

    def awake_at(self, round_index: Round) -> FrozenSet[NodeId]:
        if round_index < 1:
            return frozenset()
        return frozenset(v for v, w in self._wake_round.items() if w <= round_index)

    def wake_round(self, node: NodeId, max_round: int = 10_000) -> int | None:
        return self._wake_round.get(node)
