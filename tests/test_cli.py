"""The ``repro`` CLI: run/sweep/experiments/validate/diff, and the drift gate.

The drift-gate tests mirror the CI ``config-drift`` job exactly: regenerate
smoke-scale rows from the committed configs into a scratch store, ``repro
diff`` it against the committed fixtures, and assert the exit code flips to 1
when a fixture is mutated.
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.experiments import experiment_e04_tdynamic_coloring
from repro.scenarios.cli import main
from repro.scenarios.configs import load_config
from repro.scenarios.store import ResultsStore, canonical_json

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS_DIR = REPO_ROOT / "configs"
COMMITTED_RESULTS = REPO_ROOT / "results"

SCENARIO_CONFIG = {
    "kind": "scenario",
    "spec": {
        "name": "tiny",
        "n": 16,
        "algorithm": "dynamic-coloring",
        "adversary": {"name": "flip-churn", "params": {"flip_prob": 0.01}},
        "rounds": "1*T1",
        "seeds": [0, 1],
        "metrics": [{"name": "validity", "params": {"problem": "coloring"}}],
    },
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def experiments_cmd(*ids, store, extra=()):
    return [
        "experiments",
        *ids,
        "--smoke",
        "--backend",
        "serial",
        "--configs",
        str(CONFIGS_DIR),
        "--store",
        str(store),
        *extra,
    ]


def run_cli(*argv):
    """``python -m repro *argv`` in a subprocess (stderr and exit code are real)."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], capture_output=True, text=True, env=env
    )


class TestRun:
    def test_runs_and_stores_a_scenario_config(self, tmp_path, capsys):
        config = write_config(tmp_path, SCENARIO_CONFIG)
        assert main(["run", str(config), "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "valid_fraction" in out
        entries = list(ResultsStore(tmp_path / "store").entries("scenarios"))
        assert len(entries) == 1
        assert entries[0].label == "tiny"
        assert len(entries[0].rows) == 2  # one row per seed
        assert entries[0].rows[0]["seed"] == 0.0

    def test_no_store_prints_without_writing(self, tmp_path, capsys):
        config = write_config(tmp_path, SCENARIO_CONFIG)
        assert main(["run", str(config), "--no-store", "--store", str(tmp_path / "s")]) == 0
        assert "valid_fraction" in capsys.readouterr().out
        assert not (tmp_path / "s").exists()

    def test_typo_fails_validation_with_suggestion(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SCENARIO_CONFIG))
        bad["spec"]["algorithm"] = "dynamic-colorng"
        config = write_config(tmp_path, bad)
        assert main(["run", str(config), "--store", str(tmp_path / "store")]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "dynamic-coloring" in err

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("seeds", "x", "seeds"),
            ("seeds", [0, 1.5], "seeds[1]"),
            ("topology", {"name": "gnp_degree", "params": {"degree": -1}}, "degree"),
        ],
    )
    def test_malformed_field_exits_1_naming_it(self, tmp_path, key, value, field):
        bad = json.loads(json.dumps(SCENARIO_CONFIG))
        bad["spec"][key] = value
        config = write_config(tmp_path, bad)
        proc = run_cli("run", str(config), "--no-store")
        assert proc.returncode == 1
        assert f"{field} must be" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize(
        "block, field",
        [({"backend": ["process"]}, "backend"), ({"transport": ["x"]}, "transport")],
    )
    def test_non_string_execution_field_fails_naming_it(self, tmp_path, command, block, field):
        config = write_config(tmp_path, {**SCENARIO_CONFIG, "execution": block})
        argv = [command, str(config)] + (["--no-store"] if command == "run" else [])
        proc = run_cli(*argv)
        assert proc.returncode != 0
        assert f"'execution' block: '{field}'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "config.json", "--parallel"],
            ["sweep", "config.json", "--parallel"],
            ["experiments", "e04", "--serial"],
            ["bench", "e04", "--serial"],
        ],
    )
    def test_deleted_backend_switches_are_rejected(self, argv, capsys):
        # --backend is the one backend selector; the old switches are gone.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_wrong_config_kind_is_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {"kind": "sweep", "spec": SCENARIO_CONFIG["spec"], "over": {"n": [8]}},
        )
        assert main(["run", str(config)]) == 1
        assert "use 'repro sweep'" in capsys.readouterr().err


class TestSweep:
    def test_runs_a_sweep_config(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            {
                "kind": "sweep",
                "spec": SCENARIO_CONFIG["spec"],
                "over": {"adversary.params.flip_prob": [0.0, 0.05]},
            },
        )
        assert main(["sweep", str(config), "--store", str(tmp_path / "store")]) == 0
        entries = list(ResultsStore(tmp_path / "store").entries("sweeps"))
        assert len(entries) == 1
        # 2 grid points x 2 seeds, each row carrying its overrides.
        assert len(entries[0].rows) == 4
        assert entries[0].rows[0]["adversary.params.flip_prob"] == 0.0


class TestValidate:
    def test_committed_configs_are_valid(self, capsys):
        assert main(["validate", str(CONFIGS_DIR)]) == 0
        assert "configs valid" in capsys.readouterr().out

    def test_invalid_config_fails(self, tmp_path, capsys):
        bad = json.loads(json.dumps(SCENARIO_CONFIG))
        bad["spec"]["adversary"] = {"name": "flip-churnn", "params": {}}
        write_config(tmp_path, bad)
        assert main(["validate", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "flip-churn" in err and "did you mean" in err


class TestExperiments:
    def test_smoke_run_stores_and_reruns_unchanged(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(experiments_cmd("e04", store=store)) == 0
        assert "[created:" in capsys.readouterr().out
        assert main(experiments_cmd("e04", store=store)) == 0
        assert "[unchanged:" in capsys.readouterr().out  # idempotent rerun

    def test_rows_byte_identical_to_direct_entry_point(self, tmp_path):
        store = tmp_path / "store"
        assert main(experiments_cmd("e04", store=store)) == 0
        (entry,) = ResultsStore(store).entries("smoke")
        config = load_config(CONFIGS_DIR / "experiments" / "e04.json")
        direct = experiment_e04_tdynamic_coloring(**config.params_for("smoke"))
        assert canonical_json([dict(r) for r in entry.rows]) == canonical_json(direct)

    def test_unknown_id_fails(self, tmp_path, capsys):
        assert main(experiments_cmd("e99", store=tmp_path)) == 1
        assert "no committed config" in capsys.readouterr().err

    def test_list_shows_committed_configs(self, capsys):
        assert main(["experiments", "--list", "--configs", str(CONFIGS_DIR)]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("e01", "e07", "e13"):
            assert experiment_id in out

    def test_tables_file_written(self, tmp_path):
        tables = tmp_path / "tables.txt"
        cmd = experiments_cmd("e04", store=tmp_path / "s", extra=("--tables", str(tables)))
        assert main(cmd) == 0
        assert "E4" in tables.read_text()


class TestBench:
    def test_smoke_bench_reports_timings(self, tmp_path, capsys):
        assert (
            main(
                [
                    "bench",
                    "e04",
                    "--smoke",
                    "--backend",
                    "serial",
                    "--configs",
                    str(CONFIGS_DIR),
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "seconds" in out
        assert list(ResultsStore(tmp_path / "store").entries("smoke"))

    @staticmethod
    def _e04_tree(tmp_path, **overrides):
        """A config tree holding only e04, with some parameter sets replaced."""
        payload = json.loads((CONFIGS_DIR / "experiments" / "e04.json").read_text())
        payload.update(overrides)
        (tmp_path / "configs" / "experiments").mkdir(parents=True)
        write_config(tmp_path / "configs" / "experiments", payload, name="e04.json")
        return tmp_path / "configs"

    def test_failed_claim_exits_1_naming_it_and_keeps_the_rows(self, tmp_path, capsys, monkeypatch):
        from repro.analysis.experiments.catalog import EXPERIMENTS

        smoke = json.loads((CONFIGS_DIR / "experiments" / "e04.json").read_text())
        configs = self._e04_tree(tmp_path, bench_params=smoke["smoke_params"])
        store = tmp_path / "store"
        argv = ["bench", "e04", "--backend", "serial", "--configs", str(configs)]
        argv += ["--store", str(store)]
        failing = dataclasses.replace(
            EXPERIMENTS["e04"], claim=lambda rows: ["row 0 valid_fraction_mean = 0.5"]
        )
        monkeypatch.setitem(EXPERIMENTS, "e04", failing)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "claim failed: e04: row 0 valid_fraction_mean = 0.5" in captured.err
        assert "[created:" in captured.out  # the rows are stored before the check
        (entry,) = ResultsStore(store).entries("bench")
        assert entry.rows and entry.rows[0]["valid_fraction_mean"] == 1.0

        monkeypatch.undo()
        assert main(argv) == 0  # the real claim holds on these rows

    def test_profile_runs_in_process_on_a_pooled_backend(self, tmp_path):
        # Two units and two workers: without --profile this batch would run
        # in a real process pool, out of the profiler's sight.
        smoke = {"n": 24, "flip_probs": [0.01], "seeds": [0, 1], "rounds_factor": 2}
        configs = self._e04_tree(tmp_path, smoke_params=smoke)
        store = tmp_path / "store"
        argv = ["bench", "e04", "--smoke", "--profile", "--backend", "process"]
        argv += ["--workers", "2", "--configs", str(configs), "--store", str(store)]
        assert main(argv) == 0
        (entry,) = ResultsStore(store).entries("smoke")
        profile = entry.provenance["telemetry"]["profile"]
        assert profile
        assert any("run_scenario_seed" in item["function"] for item in profile)


class TestDriftGate:
    """The config-drift CI job, end to end, against the committed fixtures."""

    def test_committed_smoke_fixture_matches_regeneration(self, tmp_path):
        store = tmp_path / "fresh"
        assert main(experiments_cmd("e04", store=store)) == 0
        (fresh,) = ResultsStore(store).entries("smoke")
        (committed_path,) = (COMMITTED_RESULTS / "smoke").glob("e04-*.json")
        committed = ResultsStore.load(committed_path)
        assert committed.key_hash == fresh.key_hash
        assert canonical_json([dict(r) for r in committed.rows]) == canonical_json(
            [dict(r) for r in fresh.rows]
        )

    def test_diff_gate_passes_then_fails_on_mutated_fixture(self, tmp_path, capsys):
        fixtures = tmp_path / "fixtures" / "smoke"
        fixtures.mkdir(parents=True)
        (committed_path,) = (COMMITTED_RESULTS / "smoke").glob("e04-*.json")
        shutil.copy(committed_path, fixtures / committed_path.name)

        fresh = tmp_path / "fresh"
        assert main(experiments_cmd("e04", store=fresh)) == 0
        assert main(["diff", str(tmp_path / "fixtures"), str(fresh), "--kind", "smoke"]) == 0

        # Mutate one cell of the committed fixture: the gate must now fail.
        data = json.loads((fixtures / committed_path.name).read_text())
        column = sorted(data["rows"][0])[0]
        data["rows"][0][column] = -123.0
        (fixtures / committed_path.name).write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["diff", str(tmp_path / "fixtures"), str(fresh), "--kind", "smoke"]) == 1
        assert "rows differ" in capsys.readouterr().out

    def test_diff_refuses_missing_store(self, tmp_path, capsys):
        (tmp_path / "exists").mkdir()
        assert main(["diff", str(tmp_path / "nope"), str(tmp_path / "exists")]) == 1
        assert "does not exist" in capsys.readouterr().err


class TestBenchDiff:
    """``repro diff --bench``: the throughput gate over committed BENCH rows."""

    COMMITTED = REPO_ROOT / "benchmarks" / "results" / "BENCH.json"

    def _diff(self, reference, candidate):
        return main(["diff", str(reference), str(candidate), "--bench"])

    def test_committed_bench_files_diff_clean_against_themselves(self, capsys):
        assert self._diff(self.COMMITTED, self.COMMITTED) == 0
        assert "bench diff clean: 23 workloads" in capsys.readouterr().out

    def test_committed_bench_rows_match_harness_schema(self, monkeypatch):
        # The harness's comparison table and the committed file must not
        # drift apart: same workload names, same key set on every row.
        monkeypatch.syspath_prepend(str(REPO_ROOT / "benchmarks"))
        bench_paths = importlib.import_module("bench_paths")
        rows = json.loads(self.COMMITTED.read_text())["rows"]
        names = [row["workload"] for row in rows]
        assert len(set(names)) == len(names)
        assert names == bench_paths.workload_names()
        for row in rows:
            assert set(row) == set(bench_paths.row_keys(row["paths"])), row["workload"]

    def test_reference_without_rps_fields_fails(self, tmp_path, capsys):
        # The nested shape the gate used to read as clean.
        payload = {"rows": [{"workload": "w", "rows_per_sec": {"serial": 10.0, "process": 20.0}}]}
        bench = write_config(tmp_path, payload, name="nested.json")
        assert self._diff(bench, bench) != 0
        assert "no numeric *_rps field" in capsys.readouterr().err

    def test_exec_shaped_regression_exits_one(self, tmp_path, capsys):
        payload = json.loads(self.COMMITTED.read_text())
        for row in payload["rows"]:
            if row["workload"].startswith("exec/"):
                for field in [name for name in row if name.endswith("_rps")]:
                    row[field] *= 0.5
        candidate = write_config(tmp_path, payload, name="slow.json")
        assert self._diff(self.COMMITTED, candidate) == 1
        err = capsys.readouterr().err
        assert "process_rps regressed" in err and "remote_rps regressed" in err

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([{"workload": "w", "a_rps": 1.0}], "top level must be an object"),
            ({"rows": {"w": {"a_rps": 1.0}}}, "'rows' must be a list"),
            ({"rows": [{"workload": "w", "a_rps": 1.0}, {"a_rps": 2.0}]}, "row 1 has no string"),
            (
                {"rows": [{"workload": "w", "a_rps": 1.0}, {"workload": "w", "a_rps": 2.0}]},
                "row 1 repeats workload 'w'",
            ),
        ],
    )
    def test_malformed_file_fails_without_traceback(self, tmp_path, capsys, payload, message):
        bench = write_config(tmp_path, payload, name="bad.json")
        assert self._diff(bench, bench) == 1
        assert f"bad.json: {message}" in capsys.readouterr().err


class TestComponents:
    def test_lists_every_registry_family(self, capsys):
        assert main(["components"]) == 0
        out = capsys.readouterr().out
        for family in ("topologies", "adversaries", "algorithms", "metrics"):
            assert family in out
