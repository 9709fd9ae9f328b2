"""Config loading and validation (including the near-miss suggestion bugfix)."""

import json
import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, RegistryError
from repro.analysis.experiments.catalog import EXPERIMENTS, experiment_defaults
from repro.scenarios import ScenarioSpec, component, run_scenario, sweep
from repro.scenarios.cli import main
from repro.scenarios.configs import (
    ExperimentConfig,
    ScenarioConfig,
    SweepConfig,
    load_config,
    load_experiment_configs,
    validate_config,
    validate_spec,
)
from repro.scenarios.executor import run_scenario_seed
from repro.scenarios.registry import ALGORITHMS
from repro.scenarios.store import canonical_json

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS_DIR = REPO_ROOT / "configs"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_scenario_config(self, tmp_path):
        path = write(
            tmp_path,
            "scenario.json",
            {"kind": "scenario", "spec": {"n": 16, "algorithm": "dynamic-coloring"}},
        )
        config = load_config(path)
        assert isinstance(config, ScenarioConfig)
        assert config.spec.n == 16

    def test_bare_spec_dict_is_a_scenario(self, tmp_path):
        spec = ScenarioSpec(n=16, algorithm="dmis")
        path = tmp_path / "bare.json"
        path.write_text(spec.to_json())
        config = load_config(path)
        assert isinstance(config, ScenarioConfig)
        assert config.spec == spec

    def test_sweep_axis_must_be_a_list(self, tmp_path):
        for values in ("dmis", 64):
            path = write(
                tmp_path,
                "sweep.json",
                {
                    "kind": "sweep",
                    "spec": {"n": 16, "algorithm": "dmis"},
                    "over": {"algorithm.name": values},
                },
            )
            with pytest.raises(ConfigurationError, match="must be a JSON list"):
                load_config(path)

    def test_sweep_config(self, tmp_path):
        path = write(
            tmp_path,
            "sweep.json",
            {
                "kind": "sweep",
                "spec": {"n": 16, "algorithm": "dmis"},
                "over": {"n": [16, 32]},
            },
        )
        config = load_config(path)
        assert isinstance(config, SweepConfig)
        assert config.over == {"n": [16, 32]}

    def test_experiment_config_scale_fallbacks(self, tmp_path):
        path = write(
            tmp_path,
            "experiment.json",
            {
                "kind": "experiment",
                "experiment": "e04",
                "title": "E4",
                "params": {"n": 128},
                "smoke_params": {"n": 24},
            },
        )
        config = load_config(path)
        assert isinstance(config, ExperimentConfig)
        assert config.params_for("full") == {"n": 128}
        assert config.params_for("smoke") == {"n": 24}
        for scale in ("bench", "huge"):  # two scales: full and smoke
            with pytest.raises(ConfigurationError, match="unknown experiment scale"):
                config.params_for(scale)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", {"kind": "wat"})
        with pytest.raises(ConfigurationError, match="unknown kind 'wat'"):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {"kind": "scenario", "spec": {"n": 4, "algorithm": "dmis"}, "extra": 1},
        )
        with pytest.raises(ConfigurationError, match="unknown keys"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(path)

    def test_leftover_bench_params_fail_validate(self, tmp_path, capsys):
        # Two scales remain (params, smoke_params); a retired bench block is unknown.
        payload = json.loads((CONFIGS_DIR / "experiments" / "e04.json").read_text())
        payload["bench_params"] = payload["smoke_params"]
        path = write(tmp_path, "e04.json", payload)
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "unknown keys ['bench_params']" in err
        assert "Traceback" not in err


UNKNOWN_INNER_KEY = {"inner": {"name": "flip-churn", "params": {"foo": 1}}, "freeze_round": 2}
FRACTIONAL_INSERTIONS = {"insertions_per_round": 1.5}

#: ``(spec override, field the error must name)`` for each bad component parameter.
BAD_PARAMETERS = {
    "adversary-param": (
        {"adversary": {"name": "burst-churn", "params": {"foo": 1}}},
        "spec.adversary.params.foo",
    ),
    "algorithm-param": (
        {"algorithm": {"name": "smis", "params": {"foo": 1}}},
        "spec.algorithm.params.foo",
    ),
    "nested-adversary": (
        {"adversary": {"name": "freeze-after", "params": UNKNOWN_INNER_KEY}},
        "spec.adversary.params.inner.params.foo",
    ),
    "insertion-value": (
        {"adversary": {"name": "edge-insertion", "params": FRACTIONAL_INSERTIONS}},
        "spec.adversary.params.insertions_per_round",
    ),
    "barabasi_albert-m=2.5": (
        {"topology": {"name": "barabasi_albert", "params": {"m": 2.5}}},
        "spec.topology.params.m",
    ),
    "barabasi_albert-m=0": (
        {"topology": {"name": "barabasi_albert", "params": {"m": 0}}},
        "spec.topology.params.m",
    ),
    "barabasi_albert-m='2'": (
        {"topology": {"name": "barabasi_albert", "params": {"m": "2"}}},
        "spec.topology.params.m",
    ),
    "staggered-interval=x": (
        {"wakeup": {"name": "staggered", "params": {"interval": "x"}}},
        "spec.wakeup.params.interval",
    ),
    "staggered-interval=0": (
        {"wakeup": {"name": "staggered", "params": {"interval": 0}}},
        "spec.wakeup.params.interval",
    ),
    "staggered-interval=1.5": (
        {"wakeup": {"name": "staggered", "params": {"interval": 1.5}}},
        "spec.wakeup.params.interval",
    ),
    # A registration closure's default once leaked as a parameter: this
    # built a clique.
    "ring-_f=clique": (
        {"topology": {"name": "ring", "params": {"_f": "clique"}}},
        "spec.topology.params._f",
    ),
}

#: ``(adversary, parameter, bad value)``: a value only the constructor
#: rejected, or silently clamped, before.
BAD_VALUES = [
    ("flip-churn", "flip_prob", 1.5),
    ("markov-churn", "p_off", 2),
    ("markov-churn", "p_on", -0.1),
    ("burst-churn", "burst_prob", 1.5),
    ("burst-churn", "drop_fraction", -1),
    ("edge-insertion", "lifetime", 0),
    ("edge-insertion", "lifetime", 1.5),  # was truncated to 1
    ("locally-static", "flip_prob", 1.5),
    ("targeted-coloring", "attacks_per_round", -1),  # was clamped to 0
    ("targeted-coloring", "attacks_per_round", 1.5),  # was truncated to 1
    ("targeted-coloring", "lifetime", 0),  # was clamped to 1
    ("targeted-coloring", "lifetime", 1.5),  # was truncated to 1
    ("targeted-mis", "attacks_per_round", -1),
    ("targeted-mis", "attacks_per_round", 1.5),
    ("targeted-mis", "lifetime", 0),
    ("targeted-mis", "lifetime", 1.5),
    ("targeted-mis", "mode", "bogus"),
    ("locally-static", "protected_radius", "x"),  # was a TypeError traceback
    ("locally-static", "protected_radius", 1.5),
    ("locally-static", "center", "x"),  # was a ValueError traceback
    ("locally-static", "center", 2.5),  # was truncated to node 2
    ("mobility", "radius", -1),
    ("mobility", "speed", -0.5),
    ("mobility", "pause_probability", 2),
]
for _adversary, _key, _value in BAD_VALUES:
    BAD_PARAMETERS[f"{_adversary}-{_key}={_value}"] = (
        {"adversary": {"name": _adversary, "params": {_key: _value}}},
        f"spec.adversary.params.{_key}",
    )
# A fractional literal duration, once truncated to an integer.
BAD_PARAMETERS["freeze-after-freeze_round=2.5"] = (
    {"adversary": {"name": "freeze-after", "params": {"inner": "flip-churn", "freeze_round": 2.5}}},
    "spec.adversary.params.freeze_round",
)

#: Specs built in Python, each with a parameter its factory does not accept.
PYTHON_BAD_PARAMETERS = {
    "nested-adversary": (
        {"adversary": component("freeze-after", **UNKNOWN_INNER_KEY)},
        "spec.adversary.params.inner.params.foo",
    ),
    "algorithm-param": (
        {"algorithm": component("smis", bogus=2)},
        "spec.algorithm.params.bogus",
    ),
}


def scenario_file(tmp_path, **override):
    spec = {"n": 12, "algorithm": "smis", "adversary": "static", "rounds": 3, **override}
    return write(tmp_path, "scenario.json", {"kind": "scenario", "spec": spec})


class TestComponentParameters:
    @pytest.mark.parametrize("case", sorted(BAD_PARAMETERS))
    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_bad_parameter_is_named_without_traceback(self, tmp_path, capsys, command, case):
        override, field = BAD_PARAMETERS[case]
        path = scenario_file(tmp_path, **override)
        args = [command, str(path)] + (["--no-store"] if command == "run" else [])
        assert main(args) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    def test_lifetime_expression_is_resolved_at_run_time(self, tmp_path, capsys):
        adversary = {"name": "edge-insertion", "params": {"lifetime": "2*T1"}}
        path = scenario_file(tmp_path, adversary=adversary)
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--no-store"]) == 0

    @pytest.mark.parametrize("freeze_round", [2, 2.0, "n/5"])
    def test_integral_durations_still_resolve(self, tmp_path, capsys, freeze_round):
        adversary = {
            "name": "freeze-after",
            "params": {"inner": "flip-churn", "freeze_round": freeze_round},
        }
        path = scenario_file(tmp_path, adversary=adversary)
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--no-store"]) == 0

    def test_non_integer_insertions_rejected(self, tmp_path, capsys):
        adversary = {"name": "edge-insertion", "params": {"insertions_per_round": 1.5}}
        path = scenario_file(tmp_path, adversary=adversary)
        assert main(["run", str(path), "--no-store"]) == 1
        err = capsys.readouterr().err
        assert "insertions_per_round must be an integer, got 1.5" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(PYTHON_BAD_PARAMETERS))
    @pytest.mark.parametrize("entry", ["run_scenario", "sweep", "run_scenario_seed"])
    def test_python_specs_get_the_config_check(self, entry, case):
        """Specs that never pass through ``load_config`` fail with the same
        field-naming ConfigurationError, not a TypeError from the factory."""
        override, field = PYTHON_BAD_PARAMETERS[case]
        spec = ScenarioSpec(n=12, algorithm="smis", adversary="static", rounds=3, seeds=(0, 1))
        spec = spec.replace(**override)
        runs = {
            "run_scenario": lambda: run_scenario(spec),
            "sweep": lambda: sweep(spec, over={"n": [10, 12]}),
            "run_scenario_seed": lambda: run_scenario_seed(spec, 0),
        }
        with pytest.raises(ConfigurationError, match=re.escape(field)):
            runs[entry]()


class TestValidateSpec:
    def test_clean_spec_has_no_problems(self):
        spec = ScenarioSpec(
            n=16,
            algorithm="dynamic-coloring",
            adversary=component("flip-churn", flip_prob=0.01),
            metrics=(component("validity", problem="coloring"),),
        )
        assert validate_spec(spec) == []

    def test_typo_produces_near_miss_suggestion(self):
        # The satellite bugfix: a typo must not surface as a lookup error deep
        # inside the registry, but as a validation message with suggestions.
        spec = ScenarioSpec(n=16, algorithm="dynamic-colorng")
        problems = validate_spec(spec)
        assert len(problems) == 1
        assert "unknown algorithm 'dynamic-colorng'" in problems[0]
        assert "did you mean" in problems[0]
        assert "dynamic-coloring" in problems[0]

    def test_every_component_role_is_checked(self):
        spec = ScenarioSpec(
            n=16,
            algorithm="nope-alg",
            adversary="nope-adv",
            topology="nope-topo",
            wakeup="nope-wake",
            metrics=("nope-metric",),
            probe="nope-probe",
            stop="nope-stop",
        )
        problems = validate_spec(spec)
        assert len(problems) == 7

    def test_registry_get_also_suggests(self):
        with pytest.raises(RegistryError, match="did you mean.*dynamic-coloring"):
            ALGORITHMS.get("dynamic-colorng")


class TestValidateConfig:
    def test_sweep_grid_points_are_validated(self, tmp_path):
        path = write(
            tmp_path,
            "sweep.json",
            {
                "kind": "sweep",
                "spec": {"n": 16, "algorithm": "dmis"},
                "over": {"algorithm.name": ["dmis-typo"]},
            },
        )
        problems = validate_config(load_config(path))
        assert any("dmis-typo" in p and "did you mean" in p for p in problems)

    def test_experiment_unknown_param_suggests(self, tmp_path):
        path = write(
            tmp_path,
            "experiment.json",
            {
                "kind": "experiment",
                "experiment": "e04",
                "title": "E4",
                "params": {"flip_prob": 0.1},
            },
        )
        problems = validate_config(load_config(path))
        assert len(problems) == 1
        assert "no parameter 'flip_prob'" in problems[0]
        assert "flip_probs" in problems[0]

    def test_experiment_unknown_id_suggests(self, tmp_path):
        path = write(
            tmp_path,
            "experiment.json",
            {"kind": "experiment", "experiment": "e41", "title": "?"},
        )
        problems = validate_config(load_config(path))
        assert any("unknown experiment 'e41'" in p for p in problems)


class TestCommittedConfigs:
    def test_every_experiment_has_a_committed_config(self):
        configs = load_experiment_configs(CONFIGS_DIR / "experiments")
        assert sorted(configs) == sorted(EXPERIMENTS)

    def test_all_committed_configs_validate(self):
        for sub in ("experiments", "scenarios", "sweeps"):
            for path in sorted((CONFIGS_DIR / sub).glob("*.json")):
                assert validate_config(load_config(path)) == [], path

    def test_full_params_match_the_entry_point_defaults(self):
        """`repro experiments --all` must be byte-identical to the in-process
        entry points: the committed full-scale parameter sets are exactly the
        experiment functions' defaults, so both paths make the same call."""
        configs = load_experiment_configs(CONFIGS_DIR / "experiments")
        for experiment_id, config in configs.items():
            defaults = experiment_defaults(experiment_id)
            assert canonical_json(config.params_for("full")) == canonical_json(defaults), (
                experiment_id
            )

    def test_smoke_params_are_subsets_of_the_signature(self):
        configs = load_experiment_configs(CONFIGS_DIR / "experiments")
        for experiment_id, config in configs.items():
            known = set(experiment_defaults(experiment_id))
            assert set(config.params_for("smoke")) <= known, experiment_id
