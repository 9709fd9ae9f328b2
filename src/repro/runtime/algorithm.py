"""The node-level algorithm API.

Every distributed algorithm in the package — the paper's ``DColor``,
``SColor``, ``DMis``, ``SMis``, their static ancestors, the ``Concat``
combiner, the baselines and the ablations — implements
:class:`DistributedAlgorithm`.

Design constraints enforced by the API (all dictated by the model of
Section 2):

* **One identical round type.**  There is a single ``compose`` / ``deliver``
  pair per round, no global phase counter.  This is what makes asynchronous
  wake-up possible (Section 7.2) — a node that wakes late simply starts
  executing the same round body as everyone else.
* **No early degree knowledge.**  ``compose(v)`` is called *before* any
  message of the round is delivered, so an algorithm cannot use its
  current-round degree (or neighbourhood) when choosing what to send; it only
  learns the degree from the size of the inbox passed to ``deliver``.
* **Locality.**  The only information about the rest of the system an
  algorithm ever receives is the per-node inbox.  Algorithms never see the
  topology object.
* **Fresh per-round randomness.**  Each node owns an independent random
  stream created from the experiment's master seed via
  :class:`~repro.utils.rng.RngFactory`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.errors import AlgorithmError
from repro.types import Assignment, NodeId, Value
from repro.utils.rng import RngFactory
from repro.runtime.messages import Message

__all__ = [
    "AlgorithmSetup",
    "DistributedAlgorithm",
    "MESSAGE_STABILITY_LEVELS",
    "VOLATILE",
]


class _Volatile:
    """Singleton sentinel: "this node's next message cannot be predicted"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "VOLATILE"


#: Returned by :meth:`DistributedAlgorithm.compose_fingerprint` when the
#: node's next message is not a deterministic function of its current state
#: (typically because ``compose`` draws fresh randomness).  The incremental
#: delivery engine then re-runs ``compose`` *and* ``deliver`` for the node
#: every round, exactly like the full path.
VOLATILE = _Volatile()

#: The recognised values of :attr:`DistributedAlgorithm.message_stability`.
MESSAGE_STABILITY_LEVELS = ("none", "pure")


@dataclass(frozen=True)
class AlgorithmSetup:
    """Static configuration handed to an algorithm before round 1.

    Attributes
    ----------
    n:
        The globally known upper bound on the number of nodes (every node id
        is in ``[0, n)``).  This is the only global knowledge the model grants
        (needed e.g. for SMis's ``1/(5n)`` desire-level floor).
    rng_factory:
        Factory for the per-node random streams of this algorithm instance.
    input:
        Optional input vector ``φ`` (``node -> value``); ``None`` entries and
        missing nodes mean ``⊥``.  Dynamic algorithms must *extend* this input
        (property A.1), never overwrite it.
    """

    n: int
    rng_factory: RngFactory
    input: Optional[Assignment] = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def input_value(self, v: NodeId) -> Value:
        """The input value of node ``v`` (``None`` = ⊥ if absent)."""
        if self.input is None:
            return None
        return self.input.get(v)


class DistributedAlgorithm(ABC):
    """Base class for synchronous local-broadcast algorithms.

    Lifecycle driven by the :class:`~repro.runtime.simulator.Simulator`::

        setup(AlgorithmSetup)           # once, before round 1
        for each round r = 1, 2, …:
            on_wake(v)                  # for nodes awake for the first time
            begin_round(r)
            m_v = compose(v)            # for every awake node, BEFORE delivery
            deliver(v, inbox_v)         # inbox_v = {u: m_u for u in N_{G_r}(v)}
            end_round(r)
            output(v)                   # collected into the trace

    Subclasses must implement :meth:`on_wake`, :meth:`compose`,
    :meth:`deliver` and :meth:`output`; the round hooks are optional.
    """

    #: Short identifier used for RNG stream derivation and reports.
    name: str = "algorithm"

    #: The *message-stability contract* this algorithm declares towards the
    #: simulator's incremental delivery engine.
    #:
    #: ``"none"`` (the conservative default)
    #:     No promise: the simulator re-runs ``compose`` and ``deliver`` for
    #:     every awake node every round (the byte-identical legacy behaviour).
    #:
    #: ``"pure"``
    #:     The algorithm promises, for every node ``v``:
    #:
    #:     1. all per-node state that ``compose``, ``deliver`` or ``output``
    #:        read changes only inside ``on_wake``, ``deliver``, or — for
    #:        nodes whose :meth:`compose_fingerprint` is :data:`VOLATILE` —
    #:        ``compose`` itself (never in ``begin_round``/``end_round``);
    #:     2. when :meth:`compose_fingerprint` is not :data:`VOLATILE`,
    #:        ``compose(v)`` is deterministic, draws no randomness, and
    #:        mutates nothing that ``deliver`` or ``output`` can observe;
    #:     3. if ``v``'s composed message *and* its inbox (the exact
    #:        key → message mapping) are both unchanged from the previous
    #:        round, then ``deliver(v, inbox)`` changes nothing observable
    #:        (state, output, metrics counters) and draws no randomness.
    #:
    #:     Under this contract the simulator may skip ``compose``/``deliver``
    #:     for quiescent nodes and reuse cached messages, inboxes and outputs
    #:     — per-round cost O(#active nodes + #topology changes) instead of
    #:     O(n + m) — while producing byte-identical traces.  Declarations
    #:     are verified empirically by the equivalence test matrix and by the
    #:     ``delivery-equivalence`` contract of ``repro verify``.
    message_stability: str = "none"

    def __init__(self) -> None:
        self._setup: Optional[AlgorithmSetup] = None
        self._node_rngs: Dict[NodeId, np.random.Generator] = {}
        self._node_rng_skips: Dict[NodeId, int] = {}
        self._awake: set[NodeId] = set()

    # -- lifecycle -----------------------------------------------------------

    def setup(self, setup: AlgorithmSetup) -> None:
        """Store the configuration; subclasses may extend (call ``super().setup``)."""
        self._setup = setup
        self._node_rngs = {}
        self._node_rng_skips = {}
        self._awake = set()

    @property
    def config(self) -> AlgorithmSetup:
        """The setup object (raises if :meth:`setup` has not been called)."""
        if self._setup is None:
            raise AlgorithmError(f"{type(self).__name__} used before setup()")
        return self._setup

    @property
    def n(self) -> int:
        """The global node-count upper bound."""
        return self.config.n

    @property
    def awake_nodes(self) -> frozenset[NodeId]:
        """Nodes that have woken up so far (as seen by this algorithm)."""
        return frozenset(self._awake)

    def rng(self, v: NodeId) -> np.random.Generator:
        """The private random stream of node ``v`` for this algorithm instance."""
        gen = self._node_rngs.get(v)
        if gen is None:
            gen = self.config.rng_factory.node_stream(self.name, v)
            # An array kernel may have drawn from v's stream without ever
            # instantiating the Generator (see kernel.nodestreams); it leaves
            # the consumed draw counts behind so the lazily-spawned stream
            # resumes at the exact position the classic path would be at.
            skip = self._node_rng_skips.pop(v, 0)
            if skip:
                gen.random(skip)
            self._node_rngs[v] = gen
        return gen

    # -- hooks driven by the simulator ------------------------------------------

    def wake(self, v: NodeId) -> None:
        """Internal: record the wake-up and dispatch to :meth:`on_wake`."""
        if v in self._awake:
            return
        self._awake.add(v)
        self.on_wake(v)

    @abstractmethod
    def on_wake(self, v: NodeId) -> None:
        """Initialise the local state of node ``v`` (it just woke up)."""

    def begin_round(self, round_index: int) -> None:
        """Optional hook called at the beginning of every round."""

    @abstractmethod
    def compose(self, v: NodeId) -> Message:
        """Return the message node ``v`` broadcasts this round (``None`` = silent)."""

    def compose_fingerprint(self, v: NodeId) -> Any:
        """A cheap token describing the message ``v`` will compose next.

        Contract (consulted only when :attr:`message_stability` is ``"pure"``;
        evaluated by the simulator after ``v``'s ``deliver``):

        * return :data:`VOLATILE` when the next message is not a
          deterministic function of the node's current state (e.g. the node
          still draws fresh per-round randomness) — the engine then runs
          ``compose`` and ``deliver`` for the node every round;
        * otherwise return a hashable token such that *token unchanged ⇒
          next composed message identical to the previous one*.  While the
          token is stable the engine reuses the cached message without even
          calling ``compose``; when it changes, ``compose`` runs again and
          the node and its neighbours are re-delivered.

        The default is conservatively :data:`VOLATILE`.
        """
        return VOLATILE

    @abstractmethod
    def deliver(self, v: NodeId, inbox: Mapping[NodeId, Message]) -> None:
        """Process the messages node ``v`` received from its current neighbours."""

    def end_round(self, round_index: int) -> None:
        """Optional hook called after every node has been delivered to."""

    @abstractmethod
    def output(self, v: NodeId) -> Value:
        """The output of node ``v`` at the end of the current round (``None`` = ⊥)."""

    # -- optional acceleration ----------------------------------------------------

    def as_kernel(self) -> Optional[Any]:
        """A factory for this algorithm's array kernel, or ``None`` (default).

        Algorithms with a hand-vectorised implementation in
        :mod:`repro.kernel` return a zero-argument callable producing an
        ``AlgorithmKernel`` bound to this instance; the simulator calls the
        factory after :meth:`setup` (kernels need ``n``) when resolving
        ``delivery="kernel"``.  The kernel must be byte-identical to the
        per-node methods — verified by the equivalence matrix and the
        ``delivery-equivalence`` contract of ``repro verify``.
        Subclasses of an accelerated
        algorithm are *not* accelerated automatically: overrides must check
        ``type(self)`` so that a subclass with changed round logic silently
        falls back to the classic engine instead of being mis-executed.
        """
        return None

    # -- optional introspection ---------------------------------------------------

    def outputs(self) -> Dict[NodeId, Value]:
        """The full output vector over the nodes that have woken up."""
        return {v: self.output(v) for v in self._awake}

    def state_summary(self) -> Any:
        """Internal state exposed to adaptive adversaries / debugging (optional)."""
        return None

    def metrics(self) -> Mapping[str, float]:
        """Algorithm-specific counters merged into the round metrics (optional)."""
        return {}
