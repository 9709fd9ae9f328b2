"""Tests for the declarative scenario API (:mod:`repro.scenarios`).

Covers the registry mechanics (registration, lookup, duplicate keys), the
``ScenarioSpec`` JSON round-trip, override derivation, duration expressions,
the parallel-vs-serial executor equivalence (same seeds ⇒ identical rows) and
one migrated experiment smoke test.
"""

import json

import numpy as np
import pytest

from repro.dynamics import generators
from repro.errors import ConfigurationError, RegistryError
from repro.exec import ExecutionPolicy, use_policy
from repro.scenarios import (
    ADVERSARIES,
    ALGORITHMS,
    METRICS,
    TOPOLOGIES,
    WAKEUPS,
    ComponentSpec,
    Registry,
    ScenarioSpec,
    available,
    component,
    resolve_expression,
    run_scenario,
    run_scenario_seed,
    sweep,
)


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("demo")
        registry.register("alpha", lambda: "a")
        assert registry.get("alpha")() == "a"
        assert "alpha" in registry
        assert len(registry) == 1

    def test_register_as_decorator(self):
        registry = Registry("demo")

        @registry.register("beta")
        def build():
            return "b"

        assert registry.get("beta") is build

    def test_duplicate_key_rejected(self):
        registry = Registry("demo")
        registry.register("alpha", lambda: "a")
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("alpha", lambda: "other")

    def test_overwrite_opt_in(self):
        registry = Registry("demo")
        registry.register("alpha", lambda: "a")
        registry.register("alpha", lambda: "new", overwrite=True)
        assert registry.get("alpha")() == "new"

    def test_unknown_key_lists_alternatives(self):
        registry = Registry("demo")
        registry.register("alpha", lambda: "a")
        with pytest.raises(RegistryError, match="alpha"):
            registry.get("nope")

    def test_invalid_keys_and_factories(self):
        registry = Registry("demo")
        with pytest.raises(RegistryError):
            registry.register("", lambda: "a")
        with pytest.raises(RegistryError):
            registry.register("x", "not-callable")

    def test_available_is_sorted(self):
        registry = Registry("demo")
        registry.register("zeta", lambda: None)
        registry.register("alpha", lambda: None)
        assert registry.available() == ("alpha", "zeta")
        assert list(registry) == ["alpha", "zeta"]

    def test_builtin_components_registered(self):
        assert "gnp_sparse" in TOPOLOGIES
        assert "flip-churn" in ADVERSARIES
        assert "dynamic-coloring" in ALGORITHMS
        assert "staggered" in WAKEUPS
        assert "validity" in METRICS

    @pytest.mark.parametrize("degree", [-1, "abc", True, float("nan")])
    def test_gnp_degree_rejects_bad_degree_naming_the_field(self, degree):
        build = TOPOLOGIES.get("gnp_degree")
        with pytest.raises(ConfigurationError, match="^degree must be"):
            build(16, np.random.default_rng(0), degree=degree)

    @pytest.mark.parametrize("degree", [0, 3, 2.5, 40])
    def test_gnp_degree_valid_inputs_draw_the_same_graph(self, degree):
        build = TOPOLOGIES.get("gnp_degree")
        expected = generators.gnp(16, min(1.0, degree / 15), np.random.default_rng(4))
        assert build(16, np.random.default_rng(4), degree=degree) == expected

    def test_available_discovery_surface(self):
        everything = available()
        assert set(everything) == {
            "topologies",
            "adversaries",
            "algorithms",
            "wakeups",
            "metrics",
            "probes",
            "stop_conditions",
            "contracts",
        }
        assert "dynamic-mis" in available("algorithms")
        assert "delta-vs-snapshot" in available("contracts")
        with pytest.raises(RegistryError):
            available("bogus")


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


def demo_spec(**overrides):
    base = dict(
        n=24,
        name="demo",
        topology="gnp_sparse",
        adversary=component("flip-churn", flip_prob=0.02),
        algorithm="dynamic-coloring",
        rounds="2*T1",
        seeds=(0, 1, 2),
        metrics=(
            component("validity", problem="coloring"),
            component("stability", warmup="T1"),
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioSpec:
    def test_component_coercion(self):
        spec = demo_spec(adversary="static", metrics=("message-size",))
        assert spec.adversary == ComponentSpec("static")
        assert spec.metrics == (ComponentSpec("message-size"),)

    def test_dict_round_trip(self):
        spec = demo_spec(wakeup=component("staggered", batch_size=4))
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = demo_spec(stop="all-decided", window=10)
        text = spec.to_json()
        json.loads(text)  # really is JSON
        assert ScenarioSpec.from_json(text) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            ScenarioSpec.from_dict({"n": 8, "algorithm": "smis", "typo": 1})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(n=0, algorithm="smis")
        with pytest.raises(ConfigurationError):
            demo_spec(seeds=())
        with pytest.raises(ConfigurationError):
            demo_spec(rounds=-1)
        with pytest.raises(ConfigurationError):
            demo_spec(window=0)

    @pytest.mark.parametrize(
        "seeds, field",
        [
            ("12", "seeds"),
            ("x", "seeds"),
            (-1, "seeds"),
            ([1.5], "seeds[0]"),
            ([True, False], "seeds[0]"),
            (["a"], "seeds[0]"),
            ([0, "1"], "seeds[1]"),
        ],
    )
    def test_seeds_must_be_a_sequence_of_integers(self, seeds, field):
        data = {"n": 8, "algorithm": "smis", "seeds": seeds}
        with pytest.raises(ConfigurationError) as excinfo:
            ScenarioSpec.from_dict(data)
        assert str(excinfo.value).startswith(f"{field} must be")

    def test_seeds_accept_numpy_and_negative_integers(self):
        spec = demo_spec(seeds=[np.int64(3), -1])
        assert spec.seeds == (3, -1)
        assert all(type(seed) is int for seed in spec.seeds)

    def test_with_overrides_dotted_paths(self):
        spec = demo_spec()
        derived = spec.with_overrides(
            {"n": 48, "adversary.params.flip_prob": 0.5, "algorithm.name": "dynamic-mis"}
        )
        assert derived.n == 48
        assert derived.adversary.params["flip_prob"] == 0.5
        assert derived.algorithm.name == "dynamic-mis"
        # the original spec is untouched
        assert spec.n == 24
        assert spec.adversary.params["flip_prob"] == 0.02

    def test_resolved_rounds_expression(self):
        spec = demo_spec(rounds="3*T1 + 2", window=10)
        assert spec.resolved_window() == 10
        assert spec.resolved_rounds() == 32

    def test_label(self):
        assert demo_spec(name="").label == "dynamic-coloring"
        assert demo_spec(name="custom").label == "custom"


class TestResolveExpression:
    def test_plain_ints_pass_through(self):
        assert resolve_expression(7) == 7
        assert resolve_expression(7.9) == 7

    def test_variables(self):
        assert resolve_expression("2*T1 + 1", T1=12) == 25
        assert resolve_expression("20*log2n + 10", log2n=5.0) == 110

    def test_rejects_unknown_names(self):
        with pytest.raises(ConfigurationError):
            resolve_expression("__import__('os')", T1=5)
        with pytest.raises(ConfigurationError):
            resolve_expression("T2 * 3", T1=5)

    def test_rejects_non_expressions(self):
        with pytest.raises(ConfigurationError):
            resolve_expression(None)
        with pytest.raises(ConfigurationError):
            resolve_expression(True)


# ---------------------------------------------------------------------------
# executor
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_run_scenario_seed_is_deterministic(self):
        spec = demo_spec()
        assert run_scenario_seed(spec, 3) == run_scenario_seed(spec, 3)

    def test_rows_in_seed_order_and_complete(self):
        result = run_scenario(demo_spec())
        assert len(result.rows) == 3
        for row in result.rows:
            assert row["valid_fraction"] == 1.0
            assert "mean_changes" in row

    def test_parallel_equals_serial_run_scenario(self):
        spec = demo_spec()
        serial = run_scenario(spec, execution="serial")
        # max_workers=2 forces a real process pool even on single-core runners
        parallel = run_scenario(spec, execution=ExecutionPolicy(backend="process", max_workers=2))
        assert serial.rows == parallel.rows
        # byte-identical, aggregation included
        keys = ("valid_fraction", "mean_changes")
        assert json.dumps(serial.aggregate(mean_keys=keys), sort_keys=True) == json.dumps(
            parallel.aggregate(mean_keys=keys), sort_keys=True
        )

    def test_parallel_equals_serial_sweep(self):
        spec = demo_spec()
        over = {"adversary.params.flip_prob": [0.0, 0.05], "n": [16, 24]}
        serial = sweep(spec, over=over, execution="serial")
        parallel = sweep(
            spec, over=over, execution=ExecutionPolicy(backend="process", max_workers=2)
        )
        assert len(serial) == len(parallel) == 4
        for s_point, p_point in zip(serial, parallel):
            assert s_point.overrides == p_point.overrides
            assert s_point.rows == p_point.rows
            assert json.dumps(s_point.rows, sort_keys=True) == json.dumps(
                p_point.rows, sort_keys=True
            )

    def test_sweep_grid_order_and_overrides(self):
        results = sweep(demo_spec(), over={"n": [8, 12]})
        assert [r.overrides["n"] for r in results] == [8, 12]
        assert [r.spec.n for r in results] == [8, 12]

    def test_sweep_requires_axes(self):
        with pytest.raises(ConfigurationError):
            sweep(demo_spec(), over={})
        with pytest.raises(ConfigurationError):
            sweep(demo_spec(), over={"n": []})

    def test_stop_condition_ends_run_early(self):
        spec = ScenarioSpec(
            n=16,
            algorithm="basic-coloring",
            adversary="static",
            rounds=500,
            seeds=(0,),
            stop="all-decided",
            metrics=(component("convergence"), component("trace-summary")),
        )
        row = run_scenario(spec).rows[0]
        assert row["completed"] == 1.0
        assert row["trace_rounds"] < 500

    def test_probe_scenario(self):
        spec = ScenarioSpec(
            n=16,
            algorithm="basic-coloring",
            adversary="static",
            rounds=60,
            seeds=(0,),
            probe="palette-shrink",
        )
        row = run_scenario(spec).rows[0]
        assert row["node_rounds_no_shrink"] + row["node_rounds_shrink"] > 0

    def test_aggregate_matches_analysis_sweep(self):
        result = run_scenario(demo_spec())
        agg = result.aggregate(mean_keys=("valid_fraction",), std_keys=("valid_fraction",))
        assert agg["valid_fraction_mean"] == 1.0
        assert agg["valid_fraction_std"] == 0.0
        assert agg["replicas"] == 3.0


# ---------------------------------------------------------------------------
# migrated experiments (smoke)
# ---------------------------------------------------------------------------


class TestMigratedExperiments:
    def test_e04_runs_through_scenarios_and_parallel_matches(self):
        from repro.analysis.experiments import experiment_e04_tdynamic_coloring

        params = dict(n=20, flip_probs=(0.01, 0.05), seeds=(0, 1, 2), rounds_factor=2)
        serial = experiment_e04_tdynamic_coloring(**params)
        with use_policy(ExecutionPolicy(backend="process", max_workers=2)):
            parallel = experiment_e04_tdynamic_coloring(**params)
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)
        assert serial[0]["valid_fraction_mean"] == 1.0

    def test_repro_root_exports(self):
        import repro

        assert repro.ScenarioSpec is ScenarioSpec
        assert callable(repro.run_scenario)
        assert callable(repro.sweep)
        assert "algorithms" in repro.available()


# ---------------------------------------------------------------------------
# the input -> input_assignment rename (the old keyword no longer exists)
# ---------------------------------------------------------------------------


class TestInputAssignmentRename:
    def _run(self, **kwargs):
        from repro.algorithms.coloring import BasicColoring
        from repro.dynamics import generators
        from repro.dynamics.adversaries import StaticAdversary
        from repro.runtime.simulator import run_simulation

        return run_simulation(
            n=4,
            algorithm=BasicColoring(),
            adversary=StaticAdversary(generators.ring(4)),
            rounds=20,
            seed=1,
            **kwargs,
        )

    def test_new_name_accepted_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            trace = self._run(input_assignment={0: 2})
        assert trace.num_rounds >= 1

    def test_old_name_raises(self):
        with pytest.raises(TypeError, match="'input'"):
            self._run(input={0: 2})

    def test_old_name_raises_in_combined_runner(self):
        from repro.core.runner import run_combined
        from repro.algorithms.coloring import DColor, SColor
        from repro.dynamics import generators
        from repro.dynamics.adversaries import StaticAdversary

        with pytest.raises(TypeError, match="'input'"):
            run_combined(
                n=4,
                static_factory=SColor,
                dynamic_factory=DColor,
                adversary=StaticAdversary(generators.ring(4)),
                rounds=4,
                input={0: 2},
            )

    def test_both_names_rejected(self):
        with pytest.raises(TypeError, match="'input'"):
            self._run(input={0: 2}, input_assignment={0: 2})
