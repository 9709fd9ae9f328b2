"""Adversary interface and the view of the execution it is allowed to see.

The paper's adversary chooses the graph ``G_r`` at the beginning of every
round.  Its power is graded by *obliviousness* (Section 2):

* a ``ρ``-oblivious adversary does not know the random bits of the last ``ρ``
  rounds when choosing ``G_r`` — in the simulator this translates to "may
  only inspect node outputs up to round ``r - ρ``" (outputs of later rounds
  already depend on later randomness);
* an *adaptive offline* adversary knows all random bits in advance.  A
  single-process simulator cannot hand out future randomness without
  replaying, so the strongest adversary we emulate is *fully adaptive
  online*: it sees every past output (up to round ``r - 1``) **and** may
  inspect the algorithm's internal state through
  :meth:`AdversaryView.algorithm_state`.  Every attack used by the paper's
  remarks (inserting a conflict edge against the current colouring, cutting
  the edge over which a fresh MIS node would notify its neighbour) only needs
  this online power, so the distinction does not weaken the experiments.

:meth:`Adversary.step` returns the change from ``G_{r-1}`` as a
:class:`~repro.dynamics.topology.TopologyDelta`, so the round-cost of an
adversary is proportional to the amount of change, not the graph size.  A
full :class:`~repro.dynamics.topology.Topology` snapshot is returned only
where no delta can be sound: by an adversary that did not produce
``G_{r-1}`` itself (round 1, or when driven out of order — see
:class:`IncrementalAdversary`), and by the replay adversaries of
:mod:`repro.dynamics.adversaries.scripted`, whose topologies are
precomputed objects.

Concrete adversaries live in :mod:`repro.dynamics.adversaries`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle / optional-dep guard
    from repro.kernel.plan import KernelPlan

from repro.errors import AdversaryError
from repro.types import Assignment, Round
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology, TopologyDelta

__all__ = [
    "Adversary",
    "AdversaryView",
    "IncrementalAdversary",
    "StepResult",
    "ADAPTIVE_OFFLINE",
    "FULLY_OBLIVIOUS",
]

#: What :meth:`Adversary.step` may return: a full snapshot, or the change set
#: relative to the previous round's topology.
StepResult = Union[Topology, TopologyDelta]

#: Obliviousness value meaning "the adversary sees everything available"
#: (the strongest adversary the simulator can emulate; see module docstring).
ADAPTIVE_OFFLINE = 0

#: Obliviousness value meaning "the adversary never looks at the execution".
FULLY_OBLIVIOUS = 10**9


class AdversaryView:
    """Read-only, obliviousness-filtered view of the execution so far.

    Instances are created by the simulator once per round and handed to
    :meth:`Adversary.step`.  ``round_index`` is the round whose graph the
    adversary is about to provide; outputs are available only up to round
    ``round_index - obliviousness`` (and never beyond ``round_index - 1``).
    """

    def __init__(
        self,
        *,
        n: int,
        round_index: Round,
        obliviousness: int,
        topologies: Union[Sequence[Topology], DynamicGraph],
        outputs: Sequence[Assignment],
        state_provider: Optional[Callable[[], Any]] = None,
    ) -> None:
        self._n = n
        self._round_index = round_index
        self._obliviousness = max(0, int(obliviousness))
        # Either an in-memory sequence (tests, ad-hoc views) or the trace's
        # DynamicGraph, which the simulator passes so building a view is O(1)
        # instead of copying the full history every round.
        self._topologies = topologies
        self._outputs = outputs
        self._state_provider = state_provider

    @property
    def n(self) -> int:
        """Globally known upper bound on the number of nodes."""
        return self._n

    @property
    def round_index(self) -> Round:
        """The round ``r`` whose graph is being chosen."""
        return self._round_index

    @property
    def obliviousness(self) -> int:
        """The ρ used to filter this view."""
        return self._obliviousness

    # -- topology history (the adversary chose these itself) ----------------

    def previous_topology(self) -> Optional[Topology]:
        """``G_{r-1}`` or ``None`` before the first round (O(1))."""
        if isinstance(self._topologies, DynamicGraph):
            return self._topologies.latest_topology()
        return self._topologies[-1] if self._topologies else None

    # -- output history (filtered by obliviousness) --------------------------

    def visible_rounds(self) -> int:
        """Number of rounds whose outputs the adversary may inspect."""
        limit = self._round_index - max(1, self._obliviousness)
        return max(0, min(len(self._outputs), limit))

    def output_history(self) -> Sequence[Assignment]:
        """Outputs of rounds ``1 … visible_rounds()`` (possibly empty)."""
        return tuple(self._outputs[: self.visible_rounds()])

    def latest_visible_outputs(self) -> Optional[Assignment]:
        """The most recent output vector the adversary is allowed to see."""
        k = self.visible_rounds()
        return self._outputs[k - 1] if k > 0 else None

    # -- adaptive state access -----------------------------------------------

    def algorithm_state(self) -> Any:
        """Internal algorithm state (adaptive adversaries only).

        Raises
        ------
        AdversaryError
            If the adversary is not adaptive (``obliviousness > 0``) or the
            simulator did not expose state.
        """
        if self._obliviousness > ADAPTIVE_OFFLINE:
            raise AdversaryError(
                "only adaptive adversaries (obliviousness == 0) may inspect algorithm state"
            )
        if self._state_provider is None:
            raise AdversaryError("the simulator did not expose algorithm state")
        return self._state_provider()


class Adversary(ABC):
    """Produces the communication graph of every round.

    Subclasses must set :attr:`obliviousness` (``ρ``) truthfully: the
    simulator uses it to filter the :class:`AdversaryView`, so an adversary
    cannot accidentally see more than its declared class allows.
    """

    #: Declared obliviousness ρ.  ``ADAPTIVE_OFFLINE`` (0) = adaptive.
    obliviousness: int = 2

    @abstractmethod
    def step(self, view: AdversaryView) -> StepResult:
        """Return ``G_r`` for ``r = view.round_index``.

        The result is either a full :class:`~repro.dynamics.topology.Topology`
        snapshot, or a :class:`~repro.dynamics.topology.TopologyDelta` that the
        simulator applies to the previous round's topology (``G_0`` is the
        empty graph).  A delta must be *exact* relative to ``G_{r-1}``: added
        edges/nodes absent before, removed edges present before (the simulator
        rejects inexact deltas).  Either way the resulting awake node set must
        contain every node that was awake in the previous round (checked by
        the simulator's dynamic graph).

        Adversaries that keep incremental state should derive from
        :class:`IncrementalAdversary`, which tracks whether the delta chain to
        the previous round is intact (and falls back to a full snapshot when
        it is not, e.g. on round 1).
        """

    def reset(self) -> None:
        """Reset internal state so the adversary can be reused across runs."""
        return None

    def kernel_plan(self) -> Optional["KernelPlan"]:
        """An array-engine execution plan, or ``None`` (the default).

        Adversaries whose behaviour fits a static edge universe plus
        per-round presence masks (see :class:`repro.kernel.plan.KernelPlan`)
        may return a plan here; the simulator's ``delivery="kernel"`` path
        then bypasses :meth:`step` entirely while consuming identical
        randomness.  Returning ``None`` keeps the adversary on the classic
        step path (a kernel-mode request then runs the incremental loop).
        """
        return None

    # -- description helpers (used by the experiment harness / reports) ------

    def describe(self) -> str:
        """One-line human-readable description for experiment reports."""
        return f"{type(self).__name__}(rho={self.obliviousness})"


# ---------------------------------------------------------------------------
# the delta chain
# ---------------------------------------------------------------------------


class IncrementalAdversary(Adversary):
    """Base class for adversaries that can emit :class:`TopologyDelta` rounds.

    Emitting a delta is only sound when the adversary knows the previous
    round's topology exactly — i.e. when *it* produced that topology one round
    earlier.  This base class tracks that "delta chain": subclasses call
    :meth:`_delta_chain_intact` exactly once at the top of :meth:`step` and
    emit a full snapshot whenever it returns ``False`` (round 1, or when
    driven out of order by a test).  That resync
    snapshot is the only way an adversary that did not produce ``G_{r-1}``
    can emit a round.
    """

    def __init__(self) -> None:
        self._last_step_round: Optional[Round] = None

    def reset(self) -> None:
        """Reset the delta chain (subclasses must call ``super().reset()``)."""
        self._last_step_round = None

    def _delta_chain_intact(self, view: AdversaryView) -> bool:
        """Whether a delta relative to ``view.previous_topology()`` is sound.

        Must be called exactly once per :meth:`step` (it records the round as
        this adversary's most recent step).
        """
        intact = (
            self._last_step_round == view.round_index - 1
            and view.previous_topology() is not None
        )
        self._last_step_round = view.round_index
        return intact
