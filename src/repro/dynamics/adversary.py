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
:class:`~repro.dynamics.topology.TopologyDelta` — a round is a set of node
wake-ups plus edge insertions and deletions, and ``G_0`` is the empty graph,
so round 1 adds every node and edge of ``G_1``.  The round cost of an
adversary is therefore proportional to the amount of change, not to the
graph size.  The simulator drives :meth:`Adversary.step` once per round, in
order, so an adversary always knows the graph its previous step produced.

Concrete adversaries live in :mod:`repro.dynamics.adversaries`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle / optional-dep guard
    from repro.kernel.plan import KernelPlan

from repro.errors import AdversaryError
from repro.types import Assignment, Round
from repro.dynamics.topology import Topology, TopologyDelta

__all__ = [
    "Adversary",
    "AdversaryView",
    "ADAPTIVE_OFFLINE",
    "FULLY_OBLIVIOUS",
]

#: Obliviousness value meaning "the adversary sees everything available"
#: (the strongest adversary the simulator can emulate; see module docstring).
ADAPTIVE_OFFLINE = 0

#: Obliviousness value meaning "the adversary never looks at the execution".
FULLY_OBLIVIOUS = 10**9


class AdversaryView:
    """Read-only, obliviousness-filtered view of the execution so far.

    Instances are created by the simulator once per round and handed to
    :meth:`Adversary.step`.  ``round_index`` is the round whose graph the
    adversary is about to provide; ``previous`` is ``G_{r-1}`` (the empty
    ``G_0`` before round 1) and ``outputs`` the output vectors of rounds
    ``1 … r-1``, round 1 first — the simulator passes a live view of its
    trace, so building a view copies nothing.  Outputs are available only up
    to round ``round_index - obliviousness`` (and never beyond
    ``round_index - 1``).
    """

    def __init__(
        self,
        *,
        n: int,
        round_index: Round,
        obliviousness: int,
        previous: Topology,
        outputs: Sequence[Assignment],
        state_provider: Optional[Callable[[], Any]] = None,
    ) -> None:
        self._n = n
        self._round_index = round_index
        self._obliviousness = max(0, int(obliviousness))
        self._previous = previous
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

    def previous_topology(self) -> Topology:
        """``G_{r-1}``; the empty graph ``G_0`` before the first round."""
        return self._previous

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
    def step(self, view: AdversaryView) -> TopologyDelta:
        """Return the change from ``G_{r-1}`` to ``G_r`` for ``r = view.round_index``.

        ``G_0`` is the empty graph.  The delta must be *exact* relative to
        ``G_{r-1}``: added edges/nodes absent before, removed edges present
        before, and no awake node removed (the simulator rejects anything
        else, and any return value that is not a delta).
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
