"""The ``Concat`` combiner — Algorithm 1 / Theorem 1.1.

``Concat`` combines one ``(T2, α)``-network-static algorithm ``SAlg`` with a
family of ``T1``-dynamic algorithm instances ``DAlg``:

* ``SAlg`` runs continuously from the start and produces, every round, a
  partial solution for the *current* graph (property B.1) that is locally
  stable wherever the graph is locally static (property B.2);
* every round a **new** ``DAlg`` instance is started on the previous round's
  ``SAlg`` output; each instance runs for ``T1 - 1`` rounds;
* the combiner's output is always the output of the **oldest** live ``DAlg``
  instance — i.e. the instance that has had a full ``T1 - 1`` rounds to extend
  the ``SAlg`` backbone into a complete solution.

Theorem 1.1 then gives: (1) every round's output is a ``T1``-dynamic solution
and (2) if the α-neighbourhood of ``v`` is static on ``[r, r2]``, the output of
``v`` is unchanged on ``[r + T1 + T2, r2]``.

Implementation notes
--------------------
* Each ``DAlg`` instance gets its own independent random streams (derived from
  the instance's start round), exactly as if it were a fresh run.
* The per-round broadcast of ``Concat`` is a dict bundling the sub-messages of
  ``SAlg`` and of every live ``DAlg`` instance.  Message sizes therefore grow
  by a factor ``T1`` — the paper accepts the same blow-up (``T1`` parallel
  instances), and experiment E12 measures it.
* ``deliver`` splits the inbox in one pass: it walks the neighbours once and
  routes each bundle entry to the sub-inbox of its instance, so a node's
  delivery costs O(deg · T1) dict operations rather than ``T1`` rebuilds of
  the inbox.  Every sub-inbox keeps the inbox's key order; a non-bundle
  message, a key missing from a bundle and a key of a retired instance are
  skipped.
* Nodes that wake up mid-run join ``SAlg`` and every live ``DAlg`` instance at
  their wake-up round; since all shipped algorithms have a single round type,
  this is exactly the asynchronous wake-up behaviour the paper requires.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Mapping, Optional

from repro.errors import ConfigurationError
from repro.types import NodeId, Value
from repro.problems.packing_covering import ProblemPair
from repro.runtime.algorithm import AlgorithmSetup, DistributedAlgorithm
from repro.runtime.messages import Message
from repro.core.interfaces import DynamicAlgorithm, NetworkStaticAlgorithm

__all__ = ["Concat"]

_SALG_KEY = "s"


class Concat(DistributedAlgorithm):
    """Algorithm 1: combine a network-static and a dynamic algorithm.

    Parameters
    ----------
    static_factory:
        Zero-argument callable producing a fresh ``SAlg`` instance.
    dynamic_factory:
        Zero-argument callable producing a fresh ``DAlg`` instance (one is
        created every round).
    T1:
        The dynamic window: each ``DAlg`` instance lives for ``T1 - 1`` rounds
        and the combiner keeps ``T1 - 1`` instances alive.  Must be ``>= 2``.
    """

    name = "concat"

    # Audited: NOT eligible for incremental delivery.  Every round starts a
    # fresh DAlg instance, so the broadcast bundle gains a new start-round
    # key each round (every node's message changes every round by
    # construction) and ``end_round`` snapshots the SAlg output of every
    # awake node.  Every round therefore touches every awake node in all
    # T1 - 1 instances — the paper's T1-parallel-instances blow-up.  Both
    # of the paper's combiners run those dense rounds vectorised on an array
    # kernel (``DynamicColoring.as_kernel`` and ``DynamicMIS.as_kernel``,
    # :mod:`repro.kernel.concat`); any other combiner stays on full.
    message_stability = "none"

    def __init__(
        self,
        static_factory: Callable[[], NetworkStaticAlgorithm],
        dynamic_factory: Callable[[], DynamicAlgorithm],
        T1: int,
    ) -> None:
        super().__init__()
        if T1 < 2:
            raise ConfigurationError(f"T1 must be >= 2, got {T1}")
        self._static_factory = static_factory
        self._dynamic_factory = dynamic_factory
        self._T1 = T1
        self._salg: Optional[NetworkStaticAlgorithm] = None
        #: start round -> live DAlg instance (insertion-ordered: oldest first).
        self._instances: "OrderedDict[int, DynamicAlgorithm]" = OrderedDict()
        self._salg_output: Dict[NodeId, Value] = {}
        self._round_index = 0

    # -- metadata ----------------------------------------------------------------

    @property
    def T1(self) -> int:
        """The dynamic window size."""
        return self._T1

    def problem_pair(self) -> ProblemPair:
        """The problem pair of the wrapped algorithms (taken from ``SAlg``)."""
        if self._salg is not None:
            return self._salg.problem_pair()
        return self._static_factory().problem_pair()

    @property
    def live_instances(self) -> int:
        """Number of currently live ``DAlg`` instances."""
        return len(self._instances)

    # -- lifecycle -----------------------------------------------------------------

    def setup(self, setup: AlgorithmSetup) -> None:
        super().setup(setup)
        self._instances.clear()
        self._round_index = 0
        self._salg = self._static_factory()
        self._salg.setup(
            AlgorithmSetup(
                n=setup.n,
                rng_factory=setup.rng_factory.child("salg"),
                input=setup.input,
            )
        )
        # φ_0: before SAlg has produced anything, the backbone is the external
        # input (the remark after Theorem 1.1) or ⊥ everywhere.
        self._salg_output = dict(setup.input) if setup.input else {}

    def on_wake(self, v: NodeId) -> None:
        assert self._salg is not None
        self._salg.wake(v)
        for instance in self._instances.values():
            instance.wake(v)

    def begin_round(self, round_index: int) -> None:
        assert self._salg is not None
        self._round_index = round_index
        # Line 1 of Algorithm 1: start a new DAlg instance on φ_{r-1}.
        instance = self._dynamic_factory()
        instance.setup(
            AlgorithmSetup(
                n=self.config.n,
                rng_factory=self.config.rng_factory.child("dalg", round_index),
                input=dict(self._salg_output),
            )
        )
        for v in sorted(self._awake):
            instance.wake(v)
        self._instances[round_index] = instance
        # Lines 2-3: keep at most T1 - 1 instances, discarding the oldest.
        while len(self._instances) > self._T1 - 1:
            self._instances.popitem(last=False)
        self._salg.begin_round(round_index)
        for inst in self._instances.values():
            inst.begin_round(round_index)

    def compose(self, v: NodeId) -> Message:
        assert self._salg is not None
        bundle: Dict[object, Message] = {_SALG_KEY: self._salg.compose(v)}
        for start_round, instance in self._instances.items():
            bundle[start_round] = instance.compose(v)
        return bundle

    def deliver(self, v: NodeId, inbox: Mapping[NodeId, Message]) -> None:
        assert self._salg is not None
        # One pass over the inbox fills every sub-inbox, each in inbox order;
        # a bundle key of no live instance (the SAlg key, a retired start
        # round) is skipped, and so is a message that is not a bundle.
        salg_inbox: Dict[NodeId, Message] = {}
        sub_inboxes: Dict[object, Dict[NodeId, Message]] = {
            start_round: {} for start_round in self._instances
        }
        sub_inbox_of = sub_inboxes.get
        for u, msg in inbox.items():
            if isinstance(msg, dict):
                salg_inbox[u] = msg[_SALG_KEY]
                for key, sub_message in msg.items():
                    sub_inbox = sub_inbox_of(key)
                    if sub_inbox is not None:
                        sub_inbox[u] = sub_message
        self._salg.deliver(v, salg_inbox)
        for start_round, instance in self._instances.items():
            instance.deliver(v, sub_inboxes[start_round])

    def end_round(self, round_index: int) -> None:
        assert self._salg is not None
        self._salg.end_round(round_index)
        for instance in self._instances.values():
            instance.end_round(round_index)
        # Line 6: remember the SAlg output φ_r — it seeds next round's instance.
        self._salg_output = {v: self._salg.output(v) for v in self._awake}

    def output(self, v: NodeId) -> Value:
        # Line 7: output the output of the oldest DAlg instance.
        if not self._instances:
            return None
        oldest = next(iter(self._instances.values()))
        return oldest.output(v)

    # -- introspection -----------------------------------------------------------------

    def backbone_output(self, v: NodeId) -> Value:
        """The current ``SAlg`` output for ``v`` (exposed for analysis / ablations)."""
        return self._salg_output.get(v)

    def state_summary(self) -> Dict[str, object]:
        return {
            "round": self._round_index,
            "live_instances": list(self._instances.keys()),
            "salg_output": dict(self._salg_output),
        }

    def metrics(self) -> Mapping[str, float]:
        return {"live_instances": float(len(self._instances))}
