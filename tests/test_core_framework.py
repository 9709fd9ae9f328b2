"""Tests of the core framework: window defaults, Concat mechanics, validity summaries."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.dynamics import generators
from repro.dynamics.adversaries import StaticAdversary
from repro.problems import TDynamicSpec, coloring_problem_pair, mis_problem_pair
from repro.runtime.algorithm import AlgorithmSetup
from repro.runtime.simulator import run_simulation
from repro.utils.rng import RngFactory
from repro.core import Concat, default_window, window_for
from repro.algorithms.common import NullBackbone
from repro.algorithms.coloring import DColor, SColor, DynamicColoring
from repro.algorithms.mis import DMis, SMis, DynamicMIS
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.executor import _build_context


class TestWindowDefaults:
    def test_grows_logarithmically(self):
        assert default_window(1024) > default_window(32)
        ratio = default_window(2**16) / math.log2(2**16)
        assert 3.0 <= ratio <= 6.0

    def test_minimum_enforced(self):
        assert default_window(2) >= 8

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            default_window(0)
        with pytest.raises(ConfigurationError):
            default_window(8, multiplier=0)

    def test_window_for_scaling(self):
        assert window_for(128, 0.5) < window_for(128, 1.0)
        assert window_for(128, 0.01) >= 2


class TestConcatMechanics:
    def test_requires_t1_at_least_two(self):
        with pytest.raises(ConfigurationError):
            Concat(SColor, DColor, T1=1)

    def test_keeps_at_most_t1_minus_one_instances(self):
        n = 12
        topo = generators.ring(n)
        algorithm = Concat(SColor, DColor, T1=4)
        run_simulation(n=n, algorithm=algorithm, adversary=StaticAdversary(topo), rounds=10, seed=1)
        assert algorithm.live_instances == 3

    def test_problem_pair_taken_from_backbone(self):
        algorithm = Concat(SMis, DMis, T1=3)
        assert algorithm.problem_pair().name == mis_problem_pair().name

    def test_named_subclasses(self):
        assert DynamicColoring(4).name == "dynamic-coloring"
        assert DynamicMIS(4).name == "dynamic-mis"
        assert DynamicColoring(4).T1 == 4

    def test_output_is_oldest_instance_and_backbone_exposed(self):
        n = 10
        topo = generators.ring(n)
        algorithm = DynamicColoring(5)
        trace = run_simulation(n=n, algorithm=algorithm, adversary=StaticAdversary(topo), rounds=20, seed=3)
        final = trace.outputs(trace.num_rounds)
        # On a static ring everything is coloured long before round 20, and the
        # backbone agrees with the combiner output once stable.
        assert all(value is not None for value in final.values())
        for v in range(n):
            assert algorithm.backbone_output(v) == final[v]

    def test_metrics_and_state_summary(self):
        n = 8
        topo = generators.ring(n)
        algorithm = DynamicColoring(3)
        run_simulation(n=n, algorithm=algorithm, adversary=StaticAdversary(topo), rounds=5, seed=0)
        assert algorithm.metrics()["live_instances"] == 2.0
        summary = algorithm.state_summary()
        assert summary["round"] == 5 and len(summary["live_instances"]) == 2

    def test_null_backbone_outputs_bottom(self):
        n = 8
        topo = generators.ring(n)
        backbone = NullBackbone(coloring_problem_pair)
        trace = run_simulation(n=n, algorithm=backbone, adversary=StaticAdversary(topo), rounds=3, seed=0)
        assert all(value is None for value in trace.outputs(3).values())
        assert backbone.problem_pair().name == coloring_problem_pair().name


class TestConcatInboxSplit:
    """``Concat.deliver`` hands every sub-algorithm the sub-inbox the
    per-instance comprehensions built, key order included."""

    def test_sub_inboxes_match_the_per_instance_comprehensions(self):
        received = []

        class RecordingSColor(SColor):
            def deliver(self, v, inbox):
                received.append((v, list(inbox.items())))

        class RecordingDColor(DColor):
            def deliver(self, v, inbox):
                received.append((v, list(inbox.items())))

        algorithm = Concat(RecordingSColor, RecordingDColor, T1=4)
        algorithm.setup(AlgorithmSetup(n=8, rng_factory=RngFactory(0)))
        for v in range(8):
            algorithm.wake(v)
        for round_index in (1, 2, 3, 4):
            algorithm.begin_round(round_index)
        live = algorithm.state_summary()["live_instances"]
        assert live == [2, 3, 4]  # the instance started in round 1 is retired

        inbox = {
            5: {"s": ("fixed", 1), 2: ("tent", 3), 3: ("tent", 4), 4: ("init", None)},
            1: None,
            7: {"s": ("fixed", 2), 4: ("tent", 1), 2: ("fixed", 5)},  # no key 3
            3: {"s": ("tent", 2), 1: ("fixed", 9), 2: ("init", 1), 3: ("fixed", 6), 4: ("tent", 2)},
            6: ("fixed", 3),  # not a bundle
        }
        algorithm.deliver(0, inbox)

        expected = [(0, [(u, msg["s"]) for u, msg in inbox.items() if isinstance(msg, dict)])]
        for start_round in live:
            expected.append(
                (
                    0,
                    [
                        (u, msg[start_round])
                        for u, msg in inbox.items()
                        if isinstance(msg, dict) and start_round in msg
                    ],
                )
            )
        assert received == expected


class TestValiditySummary:
    def test_concat_run_summarises_validity(self):
        n = 24
        spec = ScenarioSpec(
            n=n,
            topology=component("gnp_degree", degree=4.6),
            algorithm="smis",
            adversary=component("flip-churn", flip_prob=0.02),
            rounds=40,
            seeds=(1,),
        )
        algorithm = Concat(SColor, DColor, 12)
        trace = run_simulation(
            n=n,
            algorithm=algorithm,
            adversary=_build_context(spec, 1).adversary,
            rounds=40,
            seed=1,
        )
        validity = TDynamicSpec(algorithm.problem_pair(), 12).validity_summary(trace)
        assert trace.num_rounds == 40
        assert 0.0 <= validity["valid_fraction"] <= 1.0
        assert validity["rounds_checked"] == 40.0

    def test_any_algorithm_is_judged_by_the_same_checker(self):
        n = 16
        trace = run_simulation(
            n=n,
            algorithm=SColor(),
            adversary=StaticAdversary(generators.ring(n)),
            rounds=25,
            seed=2,
        )
        validity = TDynamicSpec(coloring_problem_pair(), default_window(n)).validity_summary(trace)
        assert trace.algorithm_name == "scolor"
        assert validity["valid_fraction"] > 0.0
