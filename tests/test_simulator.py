"""Tests of the synchronous round engine (Section 2 round structure)."""

from typing import Mapping

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.dynamics import generators
from repro.dynamics.adversaries import ChurnAdversary, ScriptedAdversary, StaticAdversary
from repro.dynamics.adversary import Adversary, AdversaryView
from repro.dynamics.churn import FlipChurn
from repro.dynamics.topology import Topology
from repro.dynamics.wakeup import StaggeredWakeup
from repro.runtime.algorithm import DistributedAlgorithm
from repro.runtime.simulator import Simulator, run_simulation
from repro.utils.rng import RngFactory


class _Probe(DistributedAlgorithm):
    """Records the order of calls and the information available at each step."""

    name = "probe"

    def __init__(self):
        super().__init__()
        self.events = []
        self.inbox_sizes = {}

    def on_wake(self, v):
        self.events.append(("wake", v))

    def begin_round(self, round_index):
        self.events.append(("begin", round_index))

    def compose(self, v):
        self.events.append(("compose", v))
        return ("hello", v)

    def deliver(self, v, inbox: Mapping):
        self.events.append(("deliver", v))
        self.inbox_sizes[v] = len(inbox)

    def end_round(self, round_index):
        self.events.append(("end", round_index))

    def output(self, v):
        return self.inbox_sizes.get(v)


class TestRoundStructure:
    def test_compose_happens_before_any_delivery(self):
        topo = generators.ring(4)
        algorithm = _Probe()
        run_simulation(n=4, algorithm=algorithm, adversary=StaticAdversary(topo), rounds=1, seed=0)
        events = algorithm.events
        last_compose = max(i for i, e in enumerate(events) if e[0] == "compose")
        first_deliver = min(i for i, e in enumerate(events) if e[0] == "deliver")
        assert last_compose < first_deliver

    def test_inbox_matches_degree(self):
        topo = generators.star(5)
        algorithm = _Probe()
        trace = run_simulation(n=5, algorithm=algorithm, adversary=StaticAdversary(topo), rounds=1, seed=0)
        outputs = trace.outputs(1)
        assert outputs[0] == 4  # hub receives from all leaves
        assert all(outputs[v] == 1 for v in range(1, 5))

    def test_wake_only_once(self):
        topo = generators.ring(3)
        algorithm = _Probe()
        run_simulation(n=3, algorithm=algorithm, adversary=StaticAdversary(topo), rounds=3, seed=0)
        wakes = [e for e in algorithm.events if e[0] == "wake"]
        assert len(wakes) == 3

    def test_gradual_wakeup_calls_wake_later(self):
        base = generators.ring(6)
        algorithm = _Probe()
        adversary = StaticAdversary(base, wakeup=StaggeredWakeup(6, batch_size=2))
        run_simulation(n=6, algorithm=algorithm, adversary=adversary, rounds=4, seed=0)
        wake_order = [v for kind, v in algorithm.events if kind == "wake"]
        assert wake_order[:2] == [0, 1]
        assert set(wake_order) == set(range(6))

    def test_begin_and_end_round_hooks(self):
        topo = generators.ring(3)
        algorithm = _Probe()
        run_simulation(n=3, algorithm=algorithm, adversary=StaticAdversary(topo), rounds=2, seed=0)
        kinds = [e[0] for e in algorithm.events]
        assert kinds.count("begin") == 2 and kinds.count("end") == 2

    def test_metrics_recorded(self):
        topo = generators.ring(4)
        trace = run_simulation(n=4, algorithm=_Probe(), adversary=StaticAdversary(topo), rounds=2, seed=0)
        metrics = trace.metrics(1)
        assert metrics.num_awake == 4
        assert metrics.num_edges == 4
        assert metrics.messages_sent == 4
        assert metrics.messages_delivered == 8
        assert metrics.max_message_bits > 0


class TestSimulatorControl:
    def test_stop_when(self):
        topo = generators.ring(4)
        trace = run_simulation(
            n=4,
            algorithm=_Probe(),
            adversary=StaticAdversary(topo),
            rounds=50,
            seed=0,
            stop_when=lambda t: t.num_rounds >= 3,
        )
        assert trace.num_rounds == 3

    def test_run_can_be_resumed(self):
        topo = generators.ring(4)
        sim = Simulator(n=4, algorithm=_Probe(), adversary=StaticAdversary(topo), seed=0)
        sim.run(2)
        sim.run(3)
        assert sim.trace.num_rounds == 5

    def test_invalid_parameters(self):
        topo = generators.ring(4)
        with pytest.raises(ConfigurationError):
            Simulator(n=0, algorithm=_Probe(), adversary=StaticAdversary(topo))
        sim = Simulator(n=4, algorithm=_Probe(), adversary=StaticAdversary(topo))
        with pytest.raises(ConfigurationError):
            sim.run(-1)

    @pytest.mark.parametrize(
        "result", ["not a topology", Topology([0, 1], [(0, 1)])], ids=["str", "Topology"]
    )
    def test_adversary_returning_a_non_delta_rejected(self, result):
        class Bad(Adversary):
            obliviousness = 5

            def step(self, view: AdversaryView):
                return result

        sim = Simulator(n=3, algorithm=_Probe(), adversary=Bad())
        expected = rf"adversary Bad\(rho=5\) returned {type(result).__name__}"
        with pytest.raises(SimulationError, match=expected):
            sim.run(1)

    def test_determinism_same_seed(self):
        base = generators.gnp(12, 0.3, RngFactory(5).stream("t"))

        def run(seed):
            adversary = ChurnAdversary(12, FlipChurn(base, 0.2), RngFactory(seed).stream("a"))
            from repro.algorithms.coloring import SColor

            return run_simulation(n=12, algorithm=SColor(), adversary=adversary, rounds=15, seed=seed)

        a = run(3)
        b = run(3)
        c = run(4)
        assert [a.outputs(r) for r in a.rounds()] == [b.outputs(r) for r in b.rounds()]
        assert [a.outputs(r) for r in a.rounds()] != [c.outputs(r) for r in c.rounds()]

    def test_scripted_adversary_drives_topologies(self):
        topologies = [Topology([0, 1, 2], [(0, 1)]), Topology([0, 1, 2], [(1, 2)])]
        trace = run_simulation(
            n=3, algorithm=_Probe(), adversary=ScriptedAdversary(topologies), rounds=2, seed=0
        )
        assert trace.topology(1).edges == frozenset({(0, 1)})
        assert trace.topology(2).edges == frozenset({(1, 2)})
