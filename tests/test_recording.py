"""Each round is recorded once: one graph append, one trace record, one epilogue.

Every delivery path records a round through ``ExecutionTrace.record`` (kernel
rounds under ``"stats"`` retention through ``record_stats``) and ends it in the
simulator's shared epilogue, which emits the one ``round`` trace event.  The
classic paths hand the round's graph over, so the dynamic graph keeps one as a
checkpoint every 32nd round; kernel rounds are stored as deltas alone.
"""

import numpy as np
import pytest

from repro.algorithms.coloring import SColor
from repro.algorithms.mis import SMis
from repro.dynamics import generators
from repro.dynamics.adversaries import ChurnAdversary, StaticAdversary
from repro.dynamics.churn import MarkovEdgeChurn
from repro.dynamics.topology import EMPTY_DELTA, Topology, TopologyDelta, empty_topology
from repro.dynamics.wakeup import WakeupSchedule
from repro.obs.trace import read_trace, trace_to
from repro.runtime.metrics import RoundMetrics
from repro.runtime.simulator import Simulator
from repro.runtime.trace import ExecutionTrace

N = 24


def _metrics(r):
    return RoundMetrics(r, 0, 0, 0, 0, 0, 0, 0)


def _churn(seed, wakeup=None):
    base = generators.gnp(N, 0.3, np.random.default_rng(seed))
    churn = MarkovEdgeChurn(base, p_off=0.1, p_on=0.2)
    return ChurnAdversary(N, churn, np.random.default_rng(seed + 1), wakeup=wakeup)


def _simulate(algorithm, adversary, delivery, rounds, **kwargs):
    sim = Simulator(
        n=N, algorithm=algorithm, adversary=adversary, seed=5, delivery=delivery, **kwargs
    )
    sim.run(rounds)
    assert sim.delivery == delivery
    return sim


def _checkpoints(graph):
    """The rounds the dynamic graph stores as snapshots rather than deltas."""
    return [r for r, entry in enumerate(graph._entries, start=1) if isinstance(entry, Topology)]


def _rows(trace):
    return [
        (
            record.topology,
            dict(record.outputs),
            sorted(record.changed),
            record.metrics.as_dict(),
        )
        for record in trace
    ]


class TestTraceRecord:
    def test_outputs_are_stored_by_reference(self):
        trace = ExecutionTrace(4, "alg", "adv")
        topo = Topology([0, 1], [(0, 1)])
        outputs = {0: 1, 1: 2}
        delta = TopologyDelta.between(empty_topology(), topo)
        trace.record(delta, outputs, _metrics(1), frozenset(outputs), topology=topo)
        assert trace.outputs(1) is outputs
        assert trace.topology(1) is topo

    def test_array_change_set_materialises_once(self):
        trace = ExecutionTrace(4, "alg", "adv")
        changed = np.array([0, 2], dtype=np.int64)
        trace.record(TopologyDelta(added_nodes=range(3)), {0: 1, 1: None, 2: 1}, _metrics(1), changed)
        nodes = trace.changed_nodes(1)
        assert nodes == frozenset({0, 2})
        assert trace.changed_nodes(1) is nodes

    def test_output_vectors_is_a_live_view(self):
        trace = ExecutionTrace(4, "alg", "adv")
        vectors = trace.output_vectors
        assert len(vectors) == 0
        first, second = {0: 1}, {0: 2}
        trace.record(TopologyDelta(added_nodes=[0]), first, _metrics(1), frozenset({0}))
        trace.record(EMPTY_DELTA, second, _metrics(2), frozenset({0}))
        assert len(vectors) == 2
        assert vectors[0] is first and vectors[-1] is second
        assert vectors[:1] == [first]

    def test_stats_replay_starts_at_the_last_stored_vector(self):
        trace = ExecutionTrace(4, "alg", "adv", retention="stats")
        trace.record(TopologyDelta(added_nodes=range(3)), {0: 1, 1: None, 2: None}, _metrics(1), frozenset({0}))
        trace.record_stats(EMPTY_DELTA, {1: 2}, _metrics(2), frozenset({1}))
        trace.record(EMPTY_DELTA, {0: 3, 1: 2, 2: None}, _metrics(3), frozenset({0}))
        trace.record_stats(EMPTY_DELTA, {2: 4}, _metrics(4), frozenset({2}))
        # cold access at the end first, then backwards past the stored round 3
        assert [dict(trace.outputs(r)) for r in (4, 2, 3, 1)] == [
            {0: 3, 1: 2, 2: 4},
            {0: 1, 1: 2, 2: None},
            {0: 3, 1: 2, 2: None},
            {0: 1, 1: None, 2: None},
        ]


class TestOutputSharing:
    def test_quiet_rounds_reuse_the_previous_output_vector(self):
        # A round that changes no output stores the previous round's vector
        # on the incremental path, as on the kernel path; rows do not move.
        topo = generators.gnp(2000, 0.004, np.random.default_rng(0))
        vectors = {}
        for delivery in ("incremental", "kernel"):
            sim = Simulator(
                n=2000, algorithm=SMis(), adversary=StaticAdversary(topo), seed=0, delivery=delivery
            )
            sim.run(80)
            assert sim.delivery == delivery
            vectors[delivery] = [record.outputs for record in sim.trace]
        distinct = {mode: len({id(v) for v in vs}) for mode, vs in vectors.items()}
        assert distinct["incremental"] == distinct["kernel"] < 80
        assert vectors["incremental"] == vectors["kernel"]


class TestStorageForm:
    @pytest.mark.parametrize("delivery", ["full", "incremental"])
    def test_classic_rounds_checkpoint_every_32nd_round(self, delivery):
        sim = _simulate(SMis(), _churn(1), delivery, rounds=70)
        assert _checkpoints(sim.trace.graph) == [1, 33, 65]

    @pytest.mark.parametrize("retention", ["full", "stats"])
    def test_kernel_rounds_are_delta_only(self, retention):
        kernel = _simulate(SMis(), _churn(1), "kernel", rounds=70, trace_retention=retention)
        assert _checkpoints(kernel.trace.graph) == []
        full = _simulate(SMis(), _churn(1), "full", rounds=70)
        assert kernel.trace.graph.topologies() == full.trace.graph.topologies()


class TestRoundEvents:
    @pytest.mark.parametrize("delivery", ["full", "incremental", "kernel"])
    @pytest.mark.parametrize("algorithm", [SMis, SColor], ids=["smis", "scolor"])
    def test_one_round_event_per_recorded_round(self, tmp_path, algorithm, delivery):
        path = tmp_path / "rounds.ndjson"
        with trace_to(path):
            sim = _simulate(algorithm(), _churn(2), delivery, rounds=10)
        events = [event for event in read_trace(path) if event["event"] == "round"]
        assert [event["round"] for event in events] == list(range(1, 11))
        for event, record in zip(events, sim.trace):
            assert event["mode"] == delivery
            assert event["awake"] == record.metrics.num_awake
            assert event["edges"] == record.metrics.num_edges
            assert event["changed"] == len(record.changed)
            assert event["quiescent"] == (event["frontier"] == 0)
            assert all(type(event[key]) is int for key in ("composed", "frontier", "changed"))
        last = sim.last_round_activity
        assert events[-1]["composed"] == len(last.composed)
        assert events[-1]["frontier"] == len(last.delivered)


class _Flicker(WakeupSchedule):
    """A schedule that loses nodes on odd rounds; adversaries accumulate its wake-ups."""

    def awake_at(self, round_index):
        if round_index % 2:
            return frozenset(range(0, N, 2))
        return frozenset(range(min(N, 3 * round_index)))


class TestWakeupsAccumulate:
    @pytest.mark.parametrize("adversary", ["static", "churn"])
    @pytest.mark.parametrize("algorithm", [SMis, SColor], ids=["smis", "scolor"])
    def test_kernel_matches_full_on_a_shrinking_schedule(self, algorithm, adversary):
        def build():
            if adversary == "static":
                base = generators.gnp(N, 0.3, np.random.default_rng(3))
                return StaticAdversary(base, wakeup=_Flicker())
            return _churn(3, wakeup=_Flicker())

        full = _simulate(algorithm(), build(), "full", rounds=12)
        kernel = _simulate(algorithm(), build(), "kernel", rounds=12)
        assert _rows(kernel.trace) == _rows(full.trace)
        awake = [record.topology.nodes for record in full.trace]
        assert all(before <= after for before, after in zip(awake, awake[1:]))
        assert awake[-1] == frozenset(range(N))
