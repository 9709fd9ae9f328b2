"""Adversary-side execution plans for the array kernel.

A :class:`KernelPlan` is the contract an adversary offers the array engine:
a *static edge universe* (every edge that can ever exist), a per-round
``advance`` callable returning a boolean presence mask over that universe,
and the wake-up schedule governing which nodes participate (wake-ups
accumulate, as in every adversary's :meth:`Adversary.step`).  The engine
diffs successive presence masks to recover the exact ``TopologyDelta`` the
classic :meth:`Adversary.step` path would have emitted, without ever
materialising python ``frozenset`` topologies, and the trace records those
deltas alone.

Adversaries that cannot express their behaviour this way simply return
``None`` from :meth:`Adversary.kernel_plan` and the simulator falls back to
the classic incremental (or full) loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Optional, Tuple

import numpy as np

__all__ = ["KernelPlan"]


@dataclass(frozen=True)
class KernelPlan:
    """Everything the array engine needs to bypass :meth:`Adversary.step`.

    Attributes
    ----------
    nodes:
        The full node universe the adversary will ever expose.  Must be a
        set of python ints in ``[0, n)``.
    universe_edges:
        Canonical ``(u, v)`` with ``u < v``, lexicographically sorted.  The
        presence masks returned by :attr:`advance` are index-aligned with
        this tuple.
    advance:
        ``advance(round_index) -> np.ndarray[bool]`` of shape
        ``(len(universe_edges),)``.  Called exactly once per round, in round
        order, and must consume adversary randomness *identically* to the
        classic step path (the byte-identity gates depend on it).  The
        returned array must not be mutated by the engine; the adversary may
        return the same object on quiescent rounds.
    wakeup:
        The wake-up schedule (``awake_at(round)``), or ``None`` when every
        node in :attr:`nodes` is awake from round 1.  The awake set of
        round ``r`` is the union of ``awake_at(r') & nodes`` over
        ``r' <= r``.
    """

    nodes: FrozenSet[int]
    universe_edges: Tuple[Tuple[int, int], ...]
    advance: Callable[[int], np.ndarray]
    wakeup: Optional[object] = None

    def validate(self, n: int) -> bool:
        """Whether the plan's id space fits the array engine (ints in [0, n))."""
        try:
            for v in self.nodes:
                if type(v) is not int or not 0 <= v < n:
                    return False
            for u, v in self.universe_edges:
                if type(u) is not int or type(v) is not int:
                    return False
                if not (0 <= u < v < n):
                    return False
                if u not in self.nodes or v not in self.nodes:
                    return False
        except TypeError:
            return False
        return True
