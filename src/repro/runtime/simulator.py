"""The synchronous round engine.

The :class:`Simulator` couples one adversary with one algorithm and executes
the round structure of Section 2:

1. the adversary provides ``G_r = (V_r, E_r)`` (its view of the execution is
   filtered by its declared obliviousness);
2. newly awake nodes are woken (``on_wake``);
3. every awake node composes one broadcast message — *before* it learns
   anything about the round's topology;
4. every awake node receives the messages of its ``G_r``-neighbours and
   performs its local computation (``deliver``);
5. every awake node's output is recorded.

Two delivery paths implement that structure:

``full``
    The legacy loop: every awake node re-composes its message, gets a freshly
    built inbox dict and re-runs ``deliver`` every round.  Per-round cost is
    O(n + m) regardless of how much actually changed.

``incremental``
    Available when the algorithm declares the ``"pure"`` message-stability
    contract (see :class:`~repro.runtime.algorithm.DistributedAlgorithm`).
    The engine caches each node's last composed message (and its size) and
    the running output vector, and per round computes the *dirty frontier* —
    nodes whose neighbourhood changed (from the round's
    :class:`~repro.dynamics.topology.TopologyDelta`), whose own message
    changed, that are message-volatile, that neighbour a changed message, or
    that just woke — and runs compose/deliver/output-recording only for that
    set.  Quiescent nodes keep their cached message and output untouched.
    Per-round cost is O(#active + #changes); the recorded trace is
    byte-identical to the full path (hard-gated by the test matrix and
    ``benchmarks/bench_paths.py --smoke``).

``kernel``
    The array-native path (see :mod:`repro.kernel`): dense numpy state
    arrays, CSR adjacency over a static edge universe, vectorised
    compose/deliver/output.  Requires a hand-vectorised kernel for the
    algorithm (:meth:`~repro.runtime.algorithm.DistributedAlgorithm.as_kernel`)
    and a :class:`~repro.kernel.plan.KernelPlan` from the adversary, but not
    the ``"pure"`` contract: a kernel that keeps every awake node volatile
    (the ``Concat`` kernels of DynamicColoring and DynamicMIS) gets dense
    every-node rounds, and a pure algorithm's kernel gets the dirty frontier.  The round loop
    never materialises python topologies at all.  Byte-identical to the
    classic paths.

Every path records a round once: one :meth:`ExecutionTrace.record
<repro.runtime.trace.ExecutionTrace.record>` call (``record_stats`` for
kernel rounds under ``"stats"`` retention) stores the round's delta (plus,
on the classic paths, the graph they built anyway, which the dynamic graph
keeps as a checkpoint every 32nd round), the output vector by reference and
the changed-output set.  The shared epilogue
(:meth:`Simulator._end_round`) then publishes the round's
:class:`RoundActivity` and emits the one ``round`` trace event.  The
adversary's view reads the previous graph and the output vectors straight
from that record, so the simulator keeps no second history.

The default mode ``"auto"`` selects the kernel path when the algorithm has
a kernel and the adversary a plan (with no input vector and no adaptive
state exposure), incremental delivery when only the algorithm's ``"pure"``
contract holds, and the full path otherwise.  An explicit ``"kernel"``
request follows the same rule: without a kernel or a plan it degrades to
incremental (or full, without the contract).  The ``delivery``
argument (a scenario's ``delivery`` field) is the only way to pick a path;
``repro verify --contracts delivery-equivalence --configs configs`` checks
that every fast path reproduces the full path's trace for the built-in cases
and every committed scenario config (see :mod:`repro.verify.contracts`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional

from repro.errors import ConfigurationError, SimulationError, TopologyError
from repro.obs.trace import active_sink
from repro.types import Assignment, NodeId, Value
from repro.utils.rng import RngFactory
from repro.dynamics.adversary import Adversary, AdversaryView, ADAPTIVE_OFFLINE
from repro.dynamics.topology import Topology, TopologyDelta, empty_topology
from repro.runtime.algorithm import AlgorithmSetup, DistributedAlgorithm, VOLATILE
from repro.runtime.messages import Message, estimate_bits
from repro.runtime.metrics import RoundMetrics
from repro.runtime.trace import ExecutionTrace

__all__ = [
    "RoundActivity",
    "Simulator",
    "run_simulation",
]

#: Sentinel for "no cached message yet" (``None`` is a valid message).
_NO_MESSAGE: Any = object()

_DELIVERY_MODES = ("auto", "full", "incremental", "kernel")


class RoundActivity:
    """What the engine actually did in one round (the delta-native surface).

    Probes and ad-hoc instrumentation read this from
    :attr:`Simulator.last_round_activity` instead of re-scanning all ``n``
    outputs: ``delivered`` is the round's dirty frontier (every node whose
    ``deliver`` ran), ``composed`` the nodes whose ``compose`` ran, and
    ``changed_outputs`` the nodes whose output differs from the previous
    round.  On the full path ``composed``/``delivered`` are simply the awake
    node set.  ``delta`` is the topology change set of the round.

    The array kernel engine passes ``composed``/``delivered``/
    ``changed_outputs`` as int64 id arrays; the frozenset views materialise
    lazily (and are cached), and :attr:`num_active` reads the array length
    directly — an activity probe that only counts never builds a python set.
    """

    __slots__ = ("round_index", "mode", "delta", "_composed", "_delivered", "_changed")

    def __init__(
        self,
        round_index: int,
        mode: str,
        delta: TopologyDelta,
        composed: Any,
        delivered: Any,
        changed_outputs: Any,
    ) -> None:
        self.round_index = round_index
        self.mode = mode
        self.delta = delta
        self._composed = composed
        self._delivered = delivered
        self._changed = changed_outputs

    @staticmethod
    def _materialise(value: Any) -> FrozenSet[NodeId]:
        return value if isinstance(value, frozenset) else frozenset(value.tolist())

    @property
    def composed(self) -> FrozenSet[NodeId]:
        """Nodes whose ``compose`` ran this round."""
        self._composed = self._materialise(self._composed)
        return self._composed

    @property
    def delivered(self) -> FrozenSet[NodeId]:
        """The round's dirty frontier (every node whose ``deliver`` ran)."""
        self._delivered = self._materialise(self._delivered)
        return self._delivered

    @property
    def changed_outputs(self) -> FrozenSet[NodeId]:
        """Nodes whose output differs from the previous round."""
        self._changed = self._materialise(self._changed)
        return self._changed

    @property
    def num_active(self) -> int:
        """Number of nodes the engine ran ``deliver`` for this round."""
        return len(self._delivered)

    @property
    def num_composed(self) -> int:
        """Number of nodes the engine ran ``compose`` for this round."""
        return len(self._composed)


class Simulator:
    """Run one algorithm against one adversary for a number of rounds.

    Parameters
    ----------
    n:
        Upper bound on the number of nodes (global knowledge).
    algorithm:
        The distributed algorithm under test (not yet set up; the simulator
        calls :meth:`~repro.runtime.algorithm.DistributedAlgorithm.setup`).
    adversary:
        The adversary providing the graph sequence.
    seed:
        Master seed; the algorithm and the adversary-view bookkeeping derive
        independent streams from it.  (Stochastic adversaries receive their
        own generator at construction time — by convention derived from the
        same experiment seed via ``RngFactory.stream("adversary", …)``.)
    input_assignment:
        Optional input vector ``φ`` forwarded to the algorithm's setup.
    expose_state_to_adversary:
        If true, adaptive adversaries (obliviousness 0) may inspect
        ``algorithm.state_summary()`` when choosing the next graph.
    stop_when:
        Optional predicate over the :class:`~repro.runtime.trace.ExecutionTrace`
        evaluated after every round; the run stops early when it returns true.
    delivery:
        ``"auto"`` (default) uses the array kernel when algorithm and
        adversary are kernel-eligible, incremental delivery when the
        algorithm declares the ``"pure"`` contract, and the full path
        otherwise; ``"full"``/``"incremental"``/``"kernel"`` force a path.
        Forcing a path the algorithm has not declared safe falls back to the
        strongest available one (the engine cannot skip work the algorithm
        has not declared skippable); ``"kernel"`` without an algorithm
        kernel or an adversary :class:`~repro.kernel.plan.KernelPlan`
        degrades to ``"incremental"`` (``"full"`` without the pure
        contract).  This argument is the only path selector.
    trace_retention:
        ``"full"`` (default) keeps every round's complete output vector in
        the trace; ``"stats"`` keeps only O(#changes) per-round output
        updates on the array kernel path and reconstructs full vectors
        lazily (see :class:`~repro.runtime.trace.ExecutionTrace`) — all
        derived metrics stay byte-identical, memory stays bounded at
        million-node scale.
    """

    def __init__(
        self,
        *,
        n: int,
        algorithm: DistributedAlgorithm,
        adversary: Adversary,
        seed: int = 0,
        rng_factory: Optional[RngFactory] = None,
        input_assignment: Optional[Assignment] = None,
        expose_state_to_adversary: bool = False,
        stop_when: Optional[Callable[[ExecutionTrace], bool]] = None,
        delivery: str = "auto",
        trace_retention: str = "full",
    ) -> None:
        if not isinstance(n, int) or n < 1:
            raise ConfigurationError(f"n must be a positive integer, got {n!r}")
        self._n = n
        self._algorithm = algorithm
        self._adversary = adversary
        self._rng_factory = rng_factory if rng_factory is not None else RngFactory(seed)
        self._input = input_assignment
        self._expose_state = expose_state_to_adversary
        self._stop_when = stop_when
        if delivery not in _DELIVERY_MODES:
            raise ConfigurationError(f"delivery must be one of {_DELIVERY_MODES}, got {delivery!r}")
        pure = algorithm.message_stability == "pure"
        # Kernel eligibility: a hand-vectorised kernel for the exact
        # algorithm type, no input vector (kernels initialise wake state
        # vectorised for the ⊥-input case only), and no adaptive state
        # exposure (state_summary would read stale instance state mid-run —
        # kernels write back only at the end of a run).  The pure contract
        # is not needed: a kernel that keeps every awake node volatile gets
        # dense every-node rounds.
        kernel_ok = self._input is None and not (
            expose_state_to_adversary and adversary.obliviousness == ADAPTIVE_OFFLINE
        )
        kernel_factory = None
        kernel_plan = None
        if kernel_ok:
            try:
                kernel_factory = algorithm.as_kernel()
            except ImportError:
                # numpy below the kernel floor: an explicit request should
                # surface the clear version error, auto falls back silently.
                if delivery == "kernel":
                    raise
                kernel_factory = None
            if kernel_factory is not None:
                try:
                    plan = adversary.kernel_plan()
                except ImportError:
                    plan = None
                if plan is not None and plan.validate(n):
                    kernel_plan = plan
        if delivery == "full":
            self._delivery = "full"
        elif delivery in ("auto", "kernel") and kernel_plan is not None:
            # the kernel needs the array path end-to-end: a kernel for the
            # algorithm and a plan from the adversary
            self._delivery = "kernel"
        else:  # remaining "incremental"/"auto"/"kernel" need the contract
            self._delivery = "incremental" if pure else "full"
        self._kernel_factory = kernel_factory
        self._kernel_plan = kernel_plan
        self._kernel_engine: Optional[Any] = None
        self._trace = ExecutionTrace(
            n,
            algorithm.name,
            adversary.describe(),
            retention=trace_retention,
        )
        self._current_topology: Topology = empty_topology()
        self._started = False
        self._last_activity: Optional[RoundActivity] = None
        # -- incremental-delivery caches (unused on the full path) ----------
        #: node -> last composed message / its estimated bit size.
        self._messages: Dict[NodeId, Message] = {}
        self._bits: Dict[NodeId, int] = {}
        #: bit-size histogram of the cached messages (for the max metric).
        self._bits_hist: Dict[int, int] = {}
        self._bits_total = 0
        self._bits_max = 0
        #: nodes whose compose_fingerprint reported VOLATILE.
        self._volatile: set[NodeId] = set()
        #: nodes scheduled for a re-compose check next round.
        self._recompose: set[NodeId] = set()
        self._fingerprints: Dict[NodeId, Any] = {}
        #: the running output vector (mutated in place, copied per round
        #: that changed an output into ``_outputs_obj``).
        self._running_outputs: Dict[NodeId, Value] = {}
        self._outputs_obj: Dict[NodeId, Value] = {}

    # -- public API -------------------------------------------------------------

    @property
    def trace(self) -> ExecutionTrace:
        """The trace recorded so far."""
        return self._trace

    @property
    def algorithm(self) -> DistributedAlgorithm:
        """The algorithm under test."""
        return self._algorithm

    @property
    def delivery(self) -> str:
        """The effective delivery path (``"full"``/``"incremental"``/``"kernel"``)."""
        return self._delivery

    @property
    def last_round_activity(self) -> Optional[RoundActivity]:
        """The :class:`RoundActivity` of the most recent round (``None`` before round 1)."""
        return self._last_activity

    def run(self, rounds: int) -> ExecutionTrace:
        """Execute ``rounds`` further rounds and return the trace."""
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        if not self._started:
            self._algorithm.setup(
                AlgorithmSetup(
                    n=self._n,
                    rng_factory=self._rng_factory.child("algorithm"),
                    input=self._input,
                )
            )
            self._started = True
        if self._delivery == "kernel" and self._kernel_engine is None:
            # Built after setup: kernels size their arrays from algorithm.n.
            from repro.kernel.engine import ArrayKernelEngine

            self._kernel_engine = ArrayKernelEngine(
                self._trace, self._kernel_factory(), self._kernel_plan
            )
        engine = self._kernel_engine
        # On the kernel path the engine runs and records the whole round.
        run_round = engine.run_round if engine is not None else self._classic_round
        for _ in range(rounds):
            self._end_round(*run_round(self._trace.num_rounds + 1))
            if self._stop_when is not None and self._stop_when(self._trace):
                break
        if engine is not None:
            # Write the kernel state back so post-run introspection of the
            # algorithm instance (outputs(), state_of(), …) works as usual.
            engine.finalize()
        return self._trace

    # -- internals -----------------------------------------------------------------

    def _adversary_view(self, round_index: int) -> AdversaryView:
        state_provider = None
        if self._expose_state and self._adversary.obliviousness == ADAPTIVE_OFFLINE:
            state_provider = self._algorithm.state_summary
        return AdversaryView(
            n=self._n,
            round_index=round_index,
            obliviousness=self._adversary.obliviousness,
            previous=self._current_topology,
            # a live view of the trace's output vectors: O(1) to build
            outputs=self._trace.output_vectors,
            state_provider=state_provider,
        )

    def _end_round(self, metrics: RoundMetrics, activity: RoundActivity) -> None:
        """The epilogue of every recorded round, whichever path ran it."""
        self._last_activity = activity
        # Trace-only, never counted: an untraced round pays one active_sink() call.
        sink = active_sink()
        if sink is not None:
            # lengths only: the kernel's id arrays are never materialised here
            frontier = activity.num_active
            sink.emit(
                "round",
                round=activity.round_index,
                mode=activity.mode,
                awake=metrics.num_awake,
                edges=metrics.num_edges,
                composed=activity.num_composed,
                frontier=frontier,
                changed=metrics.outputs_changed,
                quiescent=frontier == 0,
            )

    def _classic_round(self, round_index: int) -> tuple[RoundMetrics, RoundActivity]:
        """Run and record one round on the full or incremental path."""
        previous = self._current_topology

        # (1) The adversary changes the graph by a delta (see Adversary.step).
        delta = self._adversary.step(self._adversary_view(round_index))
        if not isinstance(delta, TopologyDelta):
            raise SimulationError(
                f"adversary {self._adversary.describe()} returned {type(delta).__name__},"
                " expected a TopologyDelta"
            )
        if delta.removed_nodes:
            raise SimulationError(
                f"adversary {self._adversary.describe()} removed awake nodes in round "
                f"{round_index}: {sorted(delta.removed_nodes)[:10]} (the awake set never shrinks)"
            )
        try:
            topology = previous.apply(delta)
        except TopologyError as exc:
            raise SimulationError(
                f"adversary {self._adversary.describe()} emitted an invalid delta "
                f"for round {round_index}: {exc}"
            ) from exc

        # (2) Wake-ups — nodes awake for the first time initialise their state.
        for v in sorted(delta.added_nodes):
            self._algorithm.wake(v)
        self._algorithm.begin_round(round_index)

        if self._delivery == "incremental":
            outputs, metrics, changed, activity = self._incremental_round(
                round_index, topology, delta
            )
        else:
            outputs, metrics, changed, activity = self._full_round(
                round_index, topology, delta
            )

        self._trace.record(delta, outputs, metrics, changed, topology=topology)
        self._current_topology = topology
        return metrics, activity

    # -- the legacy O(n + m) path ------------------------------------------------

    def _full_round(
        self,
        round_index: int,
        topology: Topology,
        delta: TopologyDelta,
    ) -> tuple[Dict[NodeId, Value], RoundMetrics, FrozenSet[NodeId], RoundActivity]:
        # (3) Compose — strictly before any delivery.
        messages: Dict[NodeId, Message] = {}
        total_bits = 0
        max_bits = 0
        for v in topology.nodes:
            message = self._algorithm.compose(v)
            messages[v] = message
            bits = estimate_bits(message)
            total_bits += bits
            if bits > max_bits:
                max_bits = bits

        # (4) Deliver along the edges of G_r.
        deliveries = 0
        for v in topology.nodes:
            neighbors = topology.neighbors(v)
            inbox: Mapping[NodeId, Message] = {u: messages[u] for u in neighbors}
            deliveries += len(inbox)
            self._algorithm.deliver(v, inbox)

        self._algorithm.end_round(round_index)

        # (5) Outputs.
        outputs: Dict[NodeId, Value] = {v: self._algorithm.output(v) for v in topology.nodes}
        previous_outputs = self._trace.outputs(round_index - 1) if round_index > 1 else {}
        changed = frozenset(
            v
            for v, value in outputs.items()
            if v not in previous_outputs or previous_outputs[v] != value
        )
        metrics = RoundMetrics(
            round_index=round_index,
            num_awake=topology.num_nodes,
            num_edges=topology.num_edges,
            messages_sent=len(messages),
            messages_delivered=deliveries,
            max_message_bits=max_bits,
            total_message_bits=total_bits,
            outputs_changed=len(changed),
            algorithm_counters=dict(self._algorithm.metrics()),
        )
        activity = RoundActivity(
            round_index=round_index,
            mode="full",
            delta=delta,
            composed=topology.nodes,
            delivered=topology.nodes,
            changed_outputs=changed,
        )
        return outputs, metrics, changed, activity

    # -- the O(#active + #changes) path --------------------------------------------

    def _record_bits(self, v: NodeId, bits: int) -> None:
        """Account node ``v``'s (new) message size in the running aggregates."""
        hist = self._bits_hist
        old = self._bits.get(v)
        if old == bits:
            return
        if old is not None:
            count = hist[old] - 1
            if count:
                hist[old] = count
            else:
                del hist[old]
            self._bits_total -= old
        self._bits[v] = bits
        hist[bits] = hist.get(bits, 0) + 1
        self._bits_total += bits
        if bits > self._bits_max:
            self._bits_max = bits
        elif old == self._bits_max and old not in hist:
            self._bits_max = max(hist) if hist else 0

    def _incremental_round(
        self,
        round_index: int,
        topology: Topology,
        delta: TopologyDelta,
    ) -> tuple[Dict[NodeId, Value], RoundMetrics, FrozenSet[NodeId], RoundActivity]:
        algorithm = self._algorithm
        nodes = topology.nodes

        # (3) Compose — only nodes whose message may differ from the cache:
        # volatile nodes (fresh randomness), nodes whose fingerprint moved
        # after their last deliver, and nodes that just woke up.
        recompose = (self._volatile | self._recompose) & nodes
        recompose |= delta.added_nodes & nodes
        self._recompose = set()
        messages = self._messages
        compose = algorithm.compose
        messages_get = messages.get
        changed_messages: list[NodeId] = []
        changed_append = changed_messages.append
        for v in recompose:
            message = compose(v)
            if messages_get(v, _NO_MESSAGE) != message:
                messages[v] = message
                self._record_bits(v, estimate_bits(message))
                changed_append(v)

        # (4) The dirty frontier: neighbourhood changed, own message changed,
        # volatile, neighbour's message changed, or just woke up.  A superset
        # is always safe (delivering an unchanged inbox to a quiescent node
        # is a contract no-op), so when a quarter of the graph changed its
        # message the per-message neighbourhood unions cost more than they
        # save and the whole awake set is taken instead — the dense-churn
        # round then costs exactly what the full path pays, no more.
        if 4 * len(changed_messages) >= len(nodes):
            dirty = set(nodes)
        else:
            dirty = set(delta.touched_nodes())
            dirty |= self._volatile
            dirty.update(changed_messages)
            for v in changed_messages:
                dirty.update(topology.neighbors(v))
            dirty &= nodes

        deliver = algorithm.deliver
        neighbors_of = topology.neighbors
        for v in dirty:
            inbox: Mapping[NodeId, Message] = {u: messages[u] for u in neighbors_of(v)}
            deliver(v, inbox)

        algorithm.end_round(round_index)

        # One pass over the dirty frontier: (a) re-classify volatility — a
        # node stays on the every-round path until its fingerprint settles,
        # and a moved fingerprint schedules a re-compose check for next
        # round; (b) refresh the node's output — only dirty nodes can have
        # changed theirs (contract: output-relevant state moves only in
        # on_wake / deliver).
        fingerprints = self._fingerprints
        volatile = self._volatile
        recompose_next = self._recompose
        running = self._running_outputs
        fingerprint_of = algorithm.compose_fingerprint
        output_of = algorithm.output
        changed = set()
        changed_add = changed.add
        for v in dirty:
            fingerprint = fingerprint_of(v)
            if fingerprint is VOLATILE:
                if v not in volatile:
                    volatile.add(v)
                    fingerprints.pop(v, None)
            else:
                volatile.discard(v)
                if fingerprints.get(v, _NO_MESSAGE) != fingerprint:
                    fingerprints[v] = fingerprint
                    recompose_next.add(v)
            value = output_of(v)
            if v not in running:
                running[v] = value
                changed_add(v)
            elif running[v] != value:
                running[v] = value
                changed_add(v)
        # the trace keeps outputs by reference: a round that changed no
        # output shares the previous round's vector
        if changed:
            self._outputs_obj = dict(running)
        outputs = self._outputs_obj

        metrics = RoundMetrics(
            round_index=round_index,
            num_awake=topology.num_nodes,
            num_edges=topology.num_edges,
            messages_sent=len(messages),
            messages_delivered=2 * topology.num_edges,
            max_message_bits=self._bits_max,
            total_message_bits=self._bits_total,
            outputs_changed=len(changed),
            algorithm_counters=dict(algorithm.metrics()),
        )
        activity = RoundActivity(
            round_index=round_index,
            mode="incremental",
            delta=delta,
            composed=frozenset(recompose),
            delivered=frozenset(dirty),
            changed_outputs=frozenset(changed),
        )
        return outputs, metrics, frozenset(changed), activity


def run_simulation(
    *,
    n: int,
    algorithm: DistributedAlgorithm,
    adversary: Adversary,
    rounds: int,
    seed: int = 0,
    input_assignment: Optional[Assignment] = None,
    expose_state_to_adversary: bool = False,
    stop_when: Optional[Callable[[ExecutionTrace], bool]] = None,
    delivery: str = "auto",
    trace_retention: str = "full",
) -> ExecutionTrace:
    """One-shot convenience wrapper around :class:`Simulator`.

    Examples
    --------
    >>> from repro.dynamics import generators
    >>> from repro.dynamics.adversaries import StaticAdversary
    >>> from repro.algorithms.coloring import BasicColoring
    >>> topo = generators.ring(8)
    >>> trace = run_simulation(
    ...     n=8,
    ...     algorithm=BasicColoring(),
    ...     adversary=StaticAdversary(topo),
    ...     rounds=50,
    ...     seed=1,
    ... )
    >>> all(value is not None for value in trace.outputs(trace.num_rounds).values())
    True
    """
    sim = Simulator(
        n=n,
        algorithm=algorithm,
        adversary=adversary,
        seed=seed,
        input_assignment=input_assignment,
        expose_state_to_adversary=expose_state_to_adversary,
        stop_when=stop_when,
        delivery=delivery,
        trace_retention=trace_retention,
    )
    return sim.run(rounds)
