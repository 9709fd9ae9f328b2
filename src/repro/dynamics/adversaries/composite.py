"""Adversaries built by composing other adversaries in time."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.dynamics.adversary import (
    Adversary,
    AdversaryView,
    IncrementalAdversary,
    StepResult,
)
from repro.dynamics.topology import EMPTY_DELTA, Topology, TopologyDelta, empty_topology

__all__ = ["PhaseAdversary", "FreezeAfterAdversary"]


def _materialise(view: AdversaryView, result: StepResult) -> Topology:
    """Resolve a step result to the full round topology."""
    if isinstance(result, TopologyDelta):
        previous = view.previous_topology()
        if previous is None:
            previous = empty_topology()
        return previous.apply(result)
    return result


class PhaseAdversary(Adversary):
    """Switches between adversaries at fixed round boundaries.

    ``phases`` is a sequence of ``(duration, adversary)`` pairs; the last
    phase may have duration ``None`` meaning "until the end of the run".
    The declared obliviousness is the minimum over the phases (the adversary
    is only as oblivious as its least oblivious phase).

    Step results (snapshots or deltas) are forwarded verbatim: each inner
    adversary's own delta-chain tracking notices that it did not produce the
    previous round's topology right after a phase switch and resynchronises
    with a full snapshot (see
    :class:`~repro.dynamics.adversary.IncrementalAdversary`).
    """

    def __init__(self, phases: Sequence[Tuple[Optional[int], Adversary]]) -> None:
        if not phases:
            raise ConfigurationError("PhaseAdversary needs at least one phase")
        for duration, _ in phases[:-1]:
            if duration is None or duration < 1:
                raise ConfigurationError(
                    "all phases except the last need a positive duration"
                )
        last_duration = phases[-1][0]
        if last_duration is not None and last_duration < 1:
            raise ConfigurationError("the last phase duration must be positive or None")
        self._phases = list(phases)
        self.obliviousness = min(adv.obliviousness for _, adv in phases)

    def reset(self) -> None:
        for _, adv in self._phases:
            adv.reset()

    def _phase_for(self, round_index: int) -> Adversary:
        remaining = round_index
        for duration, adv in self._phases:
            if duration is None or remaining <= duration:
                return adv
            remaining -= duration
        return self._phases[-1][1]

    def step(self, view: AdversaryView) -> StepResult:
        return self._phase_for(view.round_index).step(view)

    def describe(self) -> str:
        inner = ", ".join(
            f"{duration if duration is not None else '∞'}×{adv.describe()}"
            for duration, adv in self._phases
        )
        return f"PhaseAdversary({inner})"


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
