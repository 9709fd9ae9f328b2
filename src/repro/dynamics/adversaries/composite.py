"""An adversary built by wrapping another one: :class:`FreezeAfterAdversary`."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.dynamics.adversary import Adversary, AdversaryView
from repro.dynamics.topology import EMPTY_DELTA, TopologyDelta

__all__ = ["FreezeAfterAdversary"]


class FreezeAfterAdversary(Adversary):
    """Runs an inner adversary until ``freeze_round`` and then freezes the graph.

    From round ``freeze_round`` on, the topology of round ``freeze_round - 1``
    (or the inner adversary's round-1 topology if ``freeze_round`` is 1) is
    repeated forever.  Used by experiment E8 to measure how quickly SMis
    decides every node once the whole graph becomes static after a period of
    churn.

    Once frozen, every round is an *empty* delta — the cheapest round the
    engine can execute.
    """

    def __init__(self, inner: Adversary, freeze_round: int) -> None:
        if freeze_round < 1:
            raise ConfigurationError(f"freeze_round must be >= 1, got {freeze_round}")
        self._inner = inner
        self._freeze_round = freeze_round
        self.obliviousness = inner.obliviousness

    @property
    def freeze_round(self) -> int:
        """The first round whose graph is frozen."""
        return self._freeze_round

    def reset(self) -> None:
        self._inner.reset()

    def step(self, view: AdversaryView) -> TopologyDelta:
        if view.round_index == 1 or view.round_index < self._freeze_round:
            return self._inner.step(view)
        return EMPTY_DELTA

    def describe(self) -> str:
        return f"FreezeAfter(round={self._freeze_round}, inner={self._inner.describe()})"
