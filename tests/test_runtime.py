"""Unit tests for the runtime layer: messages, algorithm API, metrics, trace."""

import pytest

from repro.errors import AlgorithmError, SimulationError
from repro.types import Interval
from repro.utils.rng import RngFactory
from repro.dynamics.topology import Topology
from repro.runtime.algorithm import AlgorithmSetup, DistributedAlgorithm
from repro.runtime.messages import estimate_bits
from repro.runtime.metrics import RoundMetrics
from repro.runtime.trace import ExecutionTrace
from helpers import record_round


class TestEstimateBits:
    def test_primitives(self):
        assert estimate_bits(None) == 1
        assert estimate_bits(True) == 1
        assert estimate_bits(0) == 2
        assert estimate_bits(255) == 9
        assert estimate_bits(1.5) == 64
        assert estimate_bits("abc") == 24

    def test_containers_sum_elements(self):
        assert estimate_bits((1, 2)) > estimate_bits(1)
        assert estimate_bits({"a": 1}) > estimate_bits(1)
        assert estimate_bits([1, 2, 3]) >= estimate_bits((1, 2, 3))

    def test_larger_ints_cost_more(self):
        assert estimate_bits(2**20) > estimate_bits(2**5)

    def test_fallback_for_exotic_objects(self):
        class Thing:
            def __repr__(self):
                return "thing"

        assert estimate_bits(Thing()) == 8 * len("thing")


class _Echo(DistributedAlgorithm):
    """Minimal algorithm used to test the base-class plumbing."""

    name = "echo"

    def __init__(self):
        super().__init__()
        self.values = {}

    def on_wake(self, v):
        self.values[v] = self.config.input_value(v)

    def compose(self, v):
        return v

    def deliver(self, v, inbox):
        self.values[v] = sorted(inbox)

    def output(self, v):
        return tuple(self.values.get(v, ())) or None


class TestAlgorithmBase:
    def test_config_before_setup_raises(self):
        algorithm = _Echo()
        with pytest.raises(AlgorithmError):
            _ = algorithm.config

    def test_setup_and_input_value(self):
        algorithm = _Echo()
        algorithm.setup(AlgorithmSetup(n=4, rng_factory=RngFactory(1), input={2: "x"}))
        assert algorithm.config.input_value(2) == "x"
        assert algorithm.config.input_value(0) is None
        assert algorithm.n == 4

    def test_wake_is_idempotent(self):
        algorithm = _Echo()
        algorithm.setup(AlgorithmSetup(n=4, rng_factory=RngFactory(1)))
        algorithm.wake(1)
        algorithm.wake(1)
        assert algorithm.awake_nodes == frozenset({1})

    def test_per_node_rng_streams_differ(self):
        algorithm = _Echo()
        algorithm.setup(AlgorithmSetup(n=4, rng_factory=RngFactory(1)))
        assert float(algorithm.rng(0).random()) != float(algorithm.rng(1).random())

    def test_outputs_helper(self):
        algorithm = _Echo()
        algorithm.setup(AlgorithmSetup(n=4, rng_factory=RngFactory(1)))
        algorithm.wake(0)
        algorithm.deliver(0, {1: 1})
        assert algorithm.outputs() == {0: (1,)}


class TestRoundMetrics:
    def test_mean_message_bits(self):
        metrics = RoundMetrics(
            round_index=1,
            num_awake=2,
            num_edges=1,
            messages_sent=2,
            messages_delivered=2,
            max_message_bits=10,
            total_message_bits=16,
            outputs_changed=2,
        )
        assert metrics.mean_message_bits == 8.0
        flat = metrics.as_dict()
        assert flat["round"] == 1.0 and flat["mean_message_bits"] == 8.0

    def test_zero_messages(self):
        metrics = RoundMetrics(1, 0, 0, 0, 0, 0, 0, 0)
        assert metrics.mean_message_bits == 0.0

    def test_algorithm_counters_prefixed(self):
        metrics = RoundMetrics(1, 1, 0, 1, 0, 1, 1, 0, algorithm_counters={"undecided": 3})
        assert metrics.as_dict()["alg.undecided"] == 3.0


def _metrics(r):
    return RoundMetrics(r, 2, 1, 2, 2, 4, 8, 0)


class TestExecutionTrace:
    def test_record_and_access(self):
        trace = ExecutionTrace(3, "alg", "adv")
        topo = Topology([0, 1], [(0, 1)])
        record_round(trace, topo, {0: "a", 1: "b"}, _metrics(1))
        record_round(trace, topo, {0: "a", 1: "c"}, _metrics(2))
        assert trace.num_rounds == 2
        assert trace.outputs(1) == {0: "a", 1: "b"}
        assert trace.output_of(1, 2) == "c"
        assert trace.output_series(1) == ["b", "c"]
        assert trace.topology(2) == topo
        assert list(trace.rounds()) == [1, 2]

    def test_changed_nodes(self):
        trace = ExecutionTrace(3, "alg", "adv")
        topo = Topology([0, 1], [])
        record_round(trace, topo, {0: 1, 1: 1}, _metrics(1))
        record_round(trace, topo, {0: 1, 1: 2}, _metrics(2))
        assert trace.changed_nodes(1) == frozenset({0, 1})
        assert trace.changed_nodes(2) == frozenset({1})

    def test_output_changes_in_interval(self):
        trace = ExecutionTrace(3, "alg", "adv")
        topo = Topology([0], [])
        for value in (1, 1, 2, 2, 3):
            record_round(trace, topo, {0: value}, _metrics(1))
        assert trace.output_changes_in(0, Interval(1, 5)) == 2
        assert trace.output_changes_in(0, Interval(3, 4)) == 0

    def test_out_of_range_round_raises(self):
        trace = ExecutionTrace(2, "alg", "adv")
        with pytest.raises(SimulationError):
            trace.outputs(1)

    def test_metric_series_and_summary(self):
        trace = ExecutionTrace(3, "alg", "adv")
        topo = Topology([0, 1], [(0, 1)])
        record_round(trace, topo, {0: 1, 1: 1}, _metrics(1))
        assert trace.metric_series("num_edges") == [1.0]
        summary = trace.summary()
        assert summary["rounds"] == 1.0 and summary["n"] == 3.0

    def test_first_round_where(self):
        trace = ExecutionTrace(3, "alg", "adv")
        topo = Topology([0], [])
        record_round(trace, topo, {0: None}, _metrics(1))
        record_round(trace, topo, {0: 5}, _metrics(2))
        assert trace.first_round_where(lambda rec: rec.outputs[0] is not None) == 2
        assert trace.first_round_where(lambda rec: rec.outputs[0] == 99) is None
