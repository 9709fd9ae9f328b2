"""An adversary built by wrapping another one: :class:`FreezeAfterAdversary`."""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.dynamics.adversary import (
    Adversary,
    AdversaryView,
    IncrementalAdversary,
    StepResult,
)
from repro.dynamics.topology import EMPTY_DELTA, Topology, TopologyDelta, empty_topology

__all__ = ["FreezeAfterAdversary"]


def _materialise(view: AdversaryView, result: StepResult) -> Topology:
    """Resolve a step result to the full round topology."""
    if isinstance(result, TopologyDelta):
        previous = view.previous_topology()
        if previous is None:
            previous = empty_topology()
        return previous.apply(result)
    return result


class FreezeAfterAdversary(IncrementalAdversary):
    """Runs an inner adversary until ``freeze_round`` and then freezes the graph.

    From round ``freeze_round`` on, the topology of round ``freeze_round - 1``
    (or the inner adversary's round-``freeze_round`` topology if nothing was
    produced yet) is repeated forever.  Used by experiment E8 to measure how
    quickly SMis decides every node once the whole graph becomes static after
    a period of churn.

    Once frozen, every round is an *empty* delta — the cheapest round the
    engine can execute.
    """

    def __init__(self, inner: Adversary, freeze_round: int) -> None:
        super().__init__()
        if freeze_round < 1:
            raise ConfigurationError(f"freeze_round must be >= 1, got {freeze_round}")
        self._inner = inner
        self._freeze_round = freeze_round
        self._frozen: Optional[Topology] = None
        self.obliviousness = inner.obliviousness

    @property
    def freeze_round(self) -> int:
        """The first round whose graph is frozen."""
        return self._freeze_round

    def reset(self) -> None:
        super().reset()
        self._inner.reset()
        self._frozen = None

    def step(self, view: AdversaryView) -> StepResult:
        chain_intact = self._delta_chain_intact(view)
        if view.round_index < self._freeze_round or self._frozen is None:
            result = self._inner.step(view)
            self._frozen = _materialise(view, result)
            return result
        if chain_intact:
            return EMPTY_DELTA
        return self._frozen

    def describe(self) -> str:
        return f"FreezeAfter(round={self._freeze_round}, inner={self._inner.describe()})"
