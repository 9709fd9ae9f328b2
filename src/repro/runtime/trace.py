"""Execution traces: the complete record of a simulated run.

An :class:`ExecutionTrace` bundles the dynamic graph the adversary produced,
the per-round output vectors of the algorithm and the per-round metrics.  All
verification (T-dynamic validity, properties A.1/A.2/B.1/B.2, stability
claims) is carried out *on traces*, never on live algorithm state, so the
checkers cannot be fooled by an algorithm that misreports its own state.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.types import Assignment, Interval, NodeId, Round, Value
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import Topology, TopologyDelta
from repro.runtime.metrics import RoundMetrics

__all__ = ["RoundRecord", "ExecutionTrace"]


class RoundRecord:
    """Everything recorded about one round.

    The topology is not stored per record: rounds live in the trace's
    :class:`~repro.dynamics.dynamic_graph.DynamicGraph` as change sets (plus a
    checkpoint snapshot every 32nd classic round), and :attr:`topology`
    materialises transparently (sequential scans cost one delta application
    per round).

    ``changed`` is the set of nodes whose output differs from the previous
    round (newly awake nodes included) — the simulator knows it as a
    byproduct of recording, so consumers get it in O(1) instead of
    re-scanning two output vectors.  The array kernel hands it over as an
    int64 id array; the frozenset view materialises (and is cached) on first
    access.

    Under ``"stats"`` trace retention (see :class:`ExecutionTrace`) the
    record stores no output vector of its own: :attr:`outputs` reconstructs
    it on demand by replaying the per-round output *updates* the trace kept
    instead — O(total changes) for a sequential scan, bounded memory always.
    """

    __slots__ = ("round_index", "metrics", "_outputs", "_changed", "_graph", "_trace")

    def __init__(
        self,
        round_index: Round,
        outputs: Optional[Mapping[NodeId, Value]],
        metrics: RoundMetrics,
        graph: DynamicGraph,
        changed: Any,
        trace: "ExecutionTrace",
    ) -> None:
        self.round_index = round_index
        self._outputs = outputs
        self.metrics = metrics
        self._changed = changed
        self._graph = graph
        self._trace = trace

    @property
    def outputs(self) -> Mapping[NodeId, Value]:
        """The output vector at the end of this round (replayed under ``"stats"``)."""
        stored = self._outputs
        if stored is not None:
            return stored
        return self._trace._materialised_outputs(self.round_index)

    @property
    def changed(self) -> frozenset:
        """Nodes whose output changed this round (lazy for array-backed records)."""
        stored = self._changed
        if isinstance(stored, frozenset):
            return stored
        materialised = frozenset(stored.tolist())
        self._changed = materialised
        return materialised

    @property
    def topology(self) -> Topology:
        """``G_{round_index}`` (materialised on demand from the dynamic graph)."""
        return self._graph.topology(self.round_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundRecord(round={self.round_index})"


class _OutputVectors(Sequence):
    """The trace's output vectors as a read-only sequence over its records."""

    __slots__ = ("_records",)

    def __init__(self, records: List[RoundRecord]) -> None:
        self._records = records

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [record.outputs for record in self._records[index]]
        return self._records[index].outputs


#: Valid trace retention modes (``ScenarioSpec`` validates against this).
RETENTION_MODES = ("full", "stats")


class ExecutionTrace:
    """The chronological record of a simulation run.

    Every round is recorded once, by :meth:`record` (``record_stats`` is
    the array kernel's ``"stats"``-retention variant).  The dynamic graph
    stores the round's delta, plus a snapshot every 32 classic rounds (see
    :class:`~repro.dynamics.dynamic_graph.DynamicGraph`), and the output
    vector is kept by reference.

    ``retention`` bounds the memory of the per-round output vectors:

    ``"full"`` (default)
        every round keeps its complete output dict — O(rounds × n) memory.

    ``"stats"``
        rounds recorded through :meth:`record_stats` (the array kernel
        engine) keep only the O(#changes) output *updates*; full vectors are
        reconstructed lazily by replaying updates forward, with a small
        rolling cache so the sequential scans of the metric/stability
        consumers stay O(total changes) overall.  Rounds recorded through
        :meth:`record` (the classic paths) still store their vectors — the
        mode pays off on the array path, where million-node runs would
        otherwise hold hundreds of n-sized dicts.  All derived metrics are
        byte-identical to ``"full"`` (consumers only ever count/sort, and
        the replay is exact).
    """

    def __init__(
        self,
        n: int,
        algorithm_name: str,
        adversary_description: str,
        *,
        retention: str = "full",
    ) -> None:
        if retention not in RETENTION_MODES:
            raise ConfigurationError(
                f"trace retention must be one of {RETENTION_MODES}, got {retention!r}"
            )
        self._graph = DynamicGraph(n)
        self._records: List[RoundRecord] = []
        self._algorithm_name = algorithm_name
        self._adversary_description = adversary_description
        self._retention = retention
        #: round -> output update of that :meth:`record_stats` round (``"stats"`` only)
        self._updates: Optional[Dict[Round, Mapping[NodeId, Value]]] = (
            {} if retention == "stats" else None
        )
        self._output_vectors = _OutputVectors(self._records)
        #: rolling replay cache: round -> reconstructed full output vector
        self._replay_cache: Dict[int, Dict[NodeId, Value]] = {}

    @property
    def retention(self) -> str:
        """The retention mode of this trace (``"full"`` or ``"stats"``)."""
        return self._retention

    # -- recording (used by the simulator) ------------------------------------

    def record(
        self,
        delta: TopologyDelta,
        outputs: Optional[Mapping[NodeId, Value]],
        metrics: RoundMetrics,
        changed: Any,
        *,
        topology: Optional[Topology] = None,
    ) -> None:
        """Append one round's record.

        ``delta`` is the exact change set from the previous round (``G_0`` is
        empty); ``topology`` is the round's graph if the caller already
        holds it (see :meth:`DynamicGraph.append`).  ``outputs`` is stored
        *by reference*: the caller transfers ownership of a dict it never
        mutates afterwards (``None`` only from :meth:`record_stats`, whose
        rounds replay their vector).  ``changed`` is the exact set of nodes
        whose output differs from the previous round, as a frozenset or an
        int64 id array (the :attr:`RoundRecord.changed` view materialises
        lazily).
        """
        self._graph.append(delta, topology)
        self._records.append(
            RoundRecord(
                round_index=self._graph.last_round,
                outputs=outputs,
                metrics=metrics,
                graph=self._graph,
                changed=changed,
                trace=self,
            )
        )

    def record_stats(
        self,
        delta: TopologyDelta,
        update: Mapping[NodeId, Value],
        metrics: RoundMetrics,
        changed: Any,
    ) -> None:
        """Append one array-kernel round keeping only its output *update*.

        ``update`` maps exactly the nodes whose output changed this round to
        their new values (ownership transfers; never mutated afterwards);
        ``changed`` is as in :meth:`record`.
        Requires ``retention="stats"``; the full vector of any round is
        reconstructed on demand by :meth:`RoundRecord.outputs`.
        """
        if self._updates is None:
            raise SimulationError('record_stats requires a retention="stats" trace')
        # no vector of its own: RoundRecord.outputs replays the updates
        self.record(delta, None, metrics, changed)
        self._updates[self._graph.last_round] = update

    def _materialised_outputs(self, r: Round) -> Dict[NodeId, Value]:
        """Replay the stored updates up to round ``r`` (stats retention).

        Keeps a rolling three-round cache window around the most recent
        request, so the dominant access patterns — strictly ascending scans,
        and the stability checker's ``outputs(r)`` / ``outputs(r - 1)``
        pairs — replay each update exactly once.  Cold random access deep
        into the trace replays from the nearest stored vector (worst case
        round 1) and costs O(total changes) once.
        """
        cache = self._replay_cache
        hit = cache.get(r)
        if hit is not None:
            return hit
        base_round = 0
        for cached_round in cache:
            if base_round < cached_round <= r:
                base_round = cached_round
        base: Mapping[NodeId, Value] = cache[base_round] if base_round else {}
        records = self._records
        for rr in range(r, base_round, -1):
            stored = records[rr - 1]._outputs
            if stored is not None:  # classic-path round: full vector on hand
                base_round, base = rr, stored
                break
        current = dict(base)
        updates = self._updates
        for rr in range(base_round + 1, r + 1):
            current.update(updates[rr])
        cache[r] = current
        for stale in [k for k in cache if not r - 1 <= k <= r + 1]:
            del cache[stale]
        return current

    # -- identification ----------------------------------------------------------

    @property
    def n(self) -> int:
        """The node-count upper bound of the run."""
        return self._graph.n

    @property
    def algorithm_name(self) -> str:
        """Name of the algorithm that produced the outputs."""
        return self._algorithm_name

    @property
    def adversary_description(self) -> str:
        """One-line description of the adversary that produced the graphs."""
        return self._adversary_description

    # -- access -----------------------------------------------------------------

    @property
    def graph(self) -> DynamicGraph:
        """The recorded dynamic graph (round-indexed, with window queries)."""
        return self._graph

    @property
    def num_rounds(self) -> int:
        """Number of recorded rounds."""
        return len(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self._records)

    def record_at(self, r: Round) -> RoundRecord:
        """The full record of round ``r`` (1-based)."""
        if not 1 <= r <= len(self._records):
            raise SimulationError(f"round {r} not recorded (trace has {len(self._records)})")
        return self._records[r - 1]

    def topology(self, r: Round) -> Topology:
        """``G_r``."""
        return self._graph.topology(r)

    def outputs(self, r: Round) -> Assignment:
        """The output vector at the end of round ``r``."""
        return self.record_at(r).outputs

    @property
    def output_vectors(self) -> Sequence[Assignment]:
        """Every recorded output vector, round 1 at index 0 (a live view, no copy)."""
        return self._output_vectors

    def output_of(self, v: NodeId, r: Round) -> Value:
        """Output of node ``v`` at the end of round ``r`` (⊥ if not awake)."""
        return self.record_at(r).outputs.get(v)

    def output_series(self, v: NodeId) -> List[Value]:
        """Output of node ``v`` in every recorded round (⊥ while asleep)."""
        return [record.outputs.get(v) for record in self._records]

    def metrics(self, r: Round) -> RoundMetrics:
        """Metrics of round ``r``."""
        return self.record_at(r).metrics

    def metric_series(self, key: str) -> List[float]:
        """A single metric across all rounds (see :meth:`RoundMetrics.as_dict`)."""
        return [record.metrics.as_dict().get(key, float("nan")) for record in self._records]

    # -- convenience analyses --------------------------------------------------

    def rounds(self) -> Sequence[Round]:
        """All recorded round indices (1-based)."""
        return range(1, len(self._records) + 1)

    def changed_nodes(self, r: Round) -> frozenset[NodeId]:
        """Nodes whose output at round ``r`` differs from round ``r - 1``.

        O(1): every round is recorded with the change set its engine computed.
        """
        return self.record_at(r).changed

    def output_update(self, r: Round) -> Mapping[NodeId, Value]:
        """``v -> output`` for every node whose output changed in round ``r``.

        O(#changes) under either retention: the stored update of a
        :meth:`record_stats` round (not a copy: read it, never mutate it),
        else the round's change set looked up in its output vector.
        Nothing is cached on the record.
        """
        record = self.record_at(r)
        outputs = record._outputs
        if outputs is None:
            return self._updates[r]
        changed = record._changed
        nodes = changed if isinstance(changed, frozenset) else changed.tolist()
        return dict(zip(nodes, map(outputs.get, nodes)))

    def output_changes_in(self, v: NodeId, interval: Interval) -> int:
        """Number of rounds in ``interval`` (excluding its first round) where ``v``'s output changed."""
        changes = 0
        for r in range(max(2, interval.start + 1), interval.end + 1):
            if self.output_of(v, r) != self.output_of(v, r - 1):
                changes += 1
        return changes

    def first_round_where(self, predicate) -> Optional[Round]:
        """First round ``r`` with ``predicate(record)`` true, or ``None``."""
        for record in self._records:
            if predicate(record):
                return record.round_index
        return None

    def summary(self) -> Dict[str, float]:
        """Coarse summary used by reports."""
        if not self._records:
            return {"rounds": 0.0}
        last = self._records[-1]
        return {
            "rounds": float(len(self._records)),
            "n": float(self._graph.n),
            "final_awake": float(last.metrics.num_awake),
            "final_edges": float(last.metrics.num_edges),
            "total_output_changes": float(
                sum(record.metrics.outputs_changed for record in self._records)
            ),
            "max_message_bits": float(
                max(record.metrics.max_message_bits for record in self._records)
            ),
        }
