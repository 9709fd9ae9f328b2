"""Tests for the ``repro.exec`` subsystem.

Covers the work-unit/chunk contract, backend equivalence on a full
registered-adversary matrix (every backend byte-identical to serial),
checkpoint/resume via the sweep journal (kill-mid-sweep → resume →
byte-identical store entries), execution policies and their config/CLI
surfaces, the per-worker spec cache, and the serial fallback.
"""

import io
import json

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    BACKENDS,
    Backend,
    BackendError,
    ExecutionPolicy,
    SweepJournal,
    auto_chunk_size,
    batch_key,
    build_chunks,
    current_policy,
    make_backend,
    resolve_policy,
    run_units,
    units_for_spec,
    use_policy,
)
from repro.exec.policy import policy_from_mapping
from repro.exec.progress import ProgressReporter
from repro.exec.runner import INTERRUPT_ENV
from repro.exec.units import Chunk
from repro.scenarios import METRICS, ScenarioSpec, component, run_scenario, sweep
from repro.scenarios.registry import ADVERSARIES
from repro.scenarios.store import canonical_json


def tiny_spec(**overrides):
    defaults = dict(
        n=16,
        topology="gnp_sparse",
        algorithm="dynamic-coloring",
        adversary=component("flip-churn", flip_prob=0.02),
        rounds=4,
        seeds=(0, 1, 2),
        metrics=(component("validity", problem="coloring"),),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ---------------------------------------------------------------------------
# units and chunks
# ---------------------------------------------------------------------------


class TestUnitsAndChunks:
    def test_units_share_spec_key(self):
        units = units_for_spec(tiny_spec())
        assert len(units) == 3
        assert len({u.spec_key for u in units}) == 1
        assert [u.seed for u in units] == [0, 1, 2]
        assert len({u.unit_key for u in units}) == 3

    def test_batch_key_tracks_workload(self):
        a = units_for_spec(tiny_spec())
        b = units_for_spec(tiny_spec())
        c = units_for_spec(tiny_spec(seeds=(0, 1, 2, 3)))
        assert batch_key(a) == batch_key(b)
        assert batch_key(a) != batch_key(c)

    def test_build_chunks_respects_size_and_spec_boundaries(self):
        units = units_for_spec(tiny_spec(seeds=tuple(range(5)))) + units_for_spec(
            tiny_spec(n=17, seeds=tuple(range(3)))
        )
        chunks = build_chunks(units, 2)
        assert [len(c) for c in chunks] == [2, 2, 1, 2, 1]
        assert [c.start for c in chunks] == [0, 2, 4, 5, 7]
        for chunk in chunks:
            assert all(units[chunk.start + i].spec_key == chunk.spec_key for i in range(len(chunk)))

    def test_build_chunks_rejects_bad_size(self):
        with pytest.raises(ConfigurationError):
            build_chunks(units_for_spec(tiny_spec()), 0)

    def test_auto_chunk_size(self):
        assert auto_chunk_size(0, 4) == 1
        assert auto_chunk_size(8, 4) == 1
        assert auto_chunk_size(1000, 2) == 64  # capped for many tiny units
        assert 1 <= auto_chunk_size(100, 4) <= 64

    def test_chunk_wire_roundtrip(self):
        units = units_for_spec(tiny_spec())
        (chunk,) = build_chunks(units, 8)
        again = Chunk.from_wire(chunk.to_wire())
        assert again == chunk


# ---------------------------------------------------------------------------
# backend equivalence (the registered-adversary matrix)
# ---------------------------------------------------------------------------

#: Parameters for the adversaries that are not default-constructible.
_ADVERSARY_PARAMS = {
    "freeze-after": {"inner": "flip-churn", "freeze_round": 3},
}


def adversary_matrix_units():
    """One tiny scenario per registered adversary (the equivalence matrix)."""
    units = []
    for name in ADVERSARIES.available():
        spec = tiny_spec(
            adversary=component(name, **_ADVERSARY_PARAMS.get(name, {})),
            seeds=(0, 1),
            rounds=4,
            name=f"matrix-{name}",
        )
        units.extend(units_for_spec(spec))
    return units


class TestBackendEquivalence:
    def test_matrix_covers_every_registered_adversary(self):
        labels = {json.dumps(u.spec_dict["adversary"]["name"]) for u in adversary_matrix_units()}
        assert len(labels) == len(ADVERSARIES.available())

    @pytest.fixture(scope="class")
    def serial_reference(self):
        units = adversary_matrix_units()
        rows = run_units(units, ExecutionPolicy(backend="serial"))
        return units, canonical_json(rows)

    @pytest.mark.parametrize("backend", ["process", "remote"])
    def test_backend_rows_byte_identical_to_serial(self, serial_reference, backend):
        units, reference = serial_reference
        policy = ExecutionPolicy(backend=backend, max_workers=2, chunk_size=3)
        rows = run_units(units, policy)
        assert canonical_json(rows) == reference

    @pytest.mark.parametrize("chunk_size", [1, 2, 7, None])
    def test_chunking_never_changes_rows(self, serial_reference, chunk_size):
        units, reference = serial_reference
        policy = ExecutionPolicy(backend="serial", chunk_size=chunk_size)
        assert canonical_json(run_units(units, policy)) == reference

    def test_run_scenario_execution_parameter(self):
        spec = tiny_spec()
        a = run_scenario(spec)
        b = run_scenario(spec, execution="process")
        c = run_scenario(spec, execution=ExecutionPolicy(backend="process", max_workers=2))
        d = run_scenario(spec, execution={"backend": "serial", "chunk_size": 2})
        assert a.rows == b.rows == c.rows == d.rows

    def test_sweep_execution_parameter(self):
        spec = tiny_spec(seeds=(0, 1))
        over = {"adversary.params.flip_prob": [0.0, 0.05]}
        a = sweep(spec, over=over)
        b = sweep(spec, over=over, execution=ExecutionPolicy(backend="process", max_workers=2))
        assert [p.rows for p in a] == [p.rows for p in b]
        assert [p.overrides for p in a] == [p.overrides for p in b]


# ---------------------------------------------------------------------------
# fallback
# ---------------------------------------------------------------------------


class TestFallback:
    def test_transport_failure_falls_back_to_serial(self):
        @BACKENDS.register("explode-transport", overwrite=True)
        class ExplodingBackend(Backend):
            def __init__(self, max_workers=None):
                del max_workers

            def submit_batch(self, chunks):
                done = 0
                for chunk in chunks:
                    if done >= 1:
                        raise BackendError("transport died mid-batch")
                    done += 1
                    from repro.exec.units import execute_chunk

                    rows, _ = execute_chunk((chunk.spec_key, chunk.spec_dict, chunk.seeds))
                    yield chunk.index, rows

        try:
            units = units_for_spec(tiny_spec(seeds=tuple(range(6))))
            reference = run_units(units, ExecutionPolicy(backend="serial"))
            rows = run_units(units, ExecutionPolicy(backend="explode-transport", chunk_size=2))
            assert canonical_json(rows) == canonical_json(reference)
        finally:
            BACKENDS.unregister("explode-transport")

    def test_ad_hoc_components_fall_back_from_remote(self):
        """Components only the parent knows about are unknown to freshly
        started workers — the runner silently recomputes serially and the
        rows still come out."""

        @METRICS.register("exec-test-parent-only", overwrite=True)
        def _metric(ctx):
            return {"parent_only": 1.0}

        try:
            spec = tiny_spec(metrics=(component("exec-test-parent-only"),), seeds=(0, 1))
            rows = run_units(
                units_for_spec(spec),
                ExecutionPolicy(backend="remote", max_workers=2),
            )
            assert rows == [{"parent_only": 1.0}, {"parent_only": 1.0}]
        finally:
            METRICS.unregister("exec-test-parent-only")


# ---------------------------------------------------------------------------
# journal / resume
# ---------------------------------------------------------------------------

#: Toggled by tests to make the "exec-test-fragile" metric explode mid-batch.
_FRAGILE_FAILS_AT = {"seed": None}


@METRICS.register("exec-test-fragile")
def _fragile_metric(ctx):
    """Test metric: raises on one configured seed (simulates a crash)."""
    if _FRAGILE_FAILS_AT["seed"] == ctx.seed:
        raise RuntimeError(f"injected failure at seed {ctx.seed}")
    return {"ok_seed": float(ctx.seed)}


class TestJournalResume:
    def _fragile_spec(self):
        return tiny_spec(metrics=(component("exec-test-fragile"),), seeds=tuple(range(8)))

    def test_kill_mid_sweep_then_resume_recomputes_only_the_rest(self, tmp_path):
        spec = self._fragile_spec()
        units = units_for_spec(spec)
        journal_dir = tmp_path / "journals"
        policy = ExecutionPolicy(backend="serial", chunk_size=1, journal_dir=str(journal_dir))

        _FRAGILE_FAILS_AT["seed"] = 5
        try:
            with pytest.raises(RuntimeError, match="injected failure"):
                run_units(units, policy)
        finally:
            _FRAGILE_FAILS_AT["seed"] = None

        journal = SweepJournal.for_batch(journal_dir, units)
        completed = journal.load()
        assert sorted(completed) == [0, 1, 2, 3, 4]  # seeds 0-4 checkpointed

        rows = run_units(units, policy.replace(resume=True))
        assert [row["ok_seed"] for row in rows] == [float(s) for s in range(8)]
        assert not journal.path.exists()  # completed journals are cleaned up

        uninterrupted = run_units(units, ExecutionPolicy(backend="serial"))
        assert canonical_json(rows) == canonical_json(uninterrupted)

    def test_without_resume_a_stale_journal_is_discarded(self, tmp_path):
        spec = self._fragile_spec()
        units = units_for_spec(spec)
        journal_dir = tmp_path / "journals"
        policy = ExecutionPolicy(backend="serial", chunk_size=1, journal_dir=str(journal_dir))
        _FRAGILE_FAILS_AT["seed"] = 3
        try:
            with pytest.raises(RuntimeError):
                run_units(units, policy)
        finally:
            _FRAGILE_FAILS_AT["seed"] = None
        # No --resume: the journal restarts from scratch (and the run works).
        rows = run_units(units, policy)
        assert [row["ok_seed"] for row in rows] == [float(s) for s in range(8)]

    def test_injected_interrupt_env(self, tmp_path, monkeypatch):
        units = units_for_spec(tiny_spec(seeds=tuple(range(6))))
        journal_dir = tmp_path / "journals"
        policy = ExecutionPolicy(backend="serial", chunk_size=1, journal_dir=str(journal_dir))
        monkeypatch.setenv(INTERRUPT_ENV, "2")
        with pytest.raises(KeyboardInterrupt):
            run_units(units, policy)
        monkeypatch.delenv(INTERRUPT_ENV)
        journal = SweepJournal.for_batch(journal_dir, units)
        assert sorted(journal.load()) == [0, 1]
        rows = run_units(units, policy.replace(resume=True))
        assert canonical_json(rows) == canonical_json(
            run_units(units, ExecutionPolicy(backend="serial"))
        )

    def test_journal_tolerates_torn_final_line(self, tmp_path):
        units = units_for_spec(tiny_spec(seeds=(0, 1, 2)))
        journal = SweepJournal.for_batch(tmp_path, units)
        journal.begin(resume=False)
        journal.record(0, {"x": 1.0})
        journal.record(1, {"x": float("nan")})
        journal.close()
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"i": 2, "u": "trunca')  # the kill happened mid-write
        completed = SweepJournal.for_batch(tmp_path, units).load()
        assert sorted(completed) == [0, 1]
        assert canonical_json(completed[1]) == canonical_json({"x": float("nan")})

    def test_resume_append_after_torn_line_keeps_new_records_parseable(self, tmp_path):
        """A second kill after resuming past a torn line must not merge the
        torn fragment with the first freshly appended record."""
        units = units_for_spec(tiny_spec(seeds=(0, 1, 2)))
        journal = SweepJournal.for_batch(tmp_path, units)
        journal.begin(resume=False)
        journal.record(0, {"x": 1.0})
        journal.close()
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"i": 1, "u": "torn')  # kill #1 mid-write, no newline
        resumed = SweepJournal.for_batch(tmp_path, units)
        assert sorted(resumed.begin(resume=True)) == [0]
        resumed.record(1, {"x": 2.0})
        resumed.close()  # kill #2 would land here
        reloaded = SweepJournal.for_batch(tmp_path, units).load()
        assert sorted(reloaded) == [0, 1]
        assert reloaded[1] == {"x": 2.0}

    def test_journal_ignores_foreign_unit_keys(self, tmp_path):
        units_a = units_for_spec(tiny_spec(seeds=(0, 1)))
        units_b = units_for_spec(tiny_spec(n=17, seeds=(0, 1)))
        journal_a = SweepJournal(tmp_path / "j.jsonl", units_a)
        journal_a.begin(resume=False)
        journal_a.record(0, {"x": 1.0})
        journal_a.close()
        assert SweepJournal(tmp_path / "j.jsonl", units_b).load() == {}


# ---------------------------------------------------------------------------
# spec cache
# ---------------------------------------------------------------------------


class TestSpecCache:
    def test_chunked_execution_parses_each_spec_once(self, monkeypatch):
        from repro.exec import units as units_module

        monkeypatch.setattr(units_module, "_SPEC_CACHE", {})
        calls = {"n": 0}
        original = ScenarioSpec.from_dict.__func__

        def counting(cls, data):
            calls["n"] += 1
            return original(cls, data)

        monkeypatch.setattr(ScenarioSpec, "from_dict", classmethod(counting))
        units = units_for_spec(tiny_spec(seeds=tuple(range(6))))
        run_units(units, ExecutionPolicy(backend="serial", chunk_size=2))
        assert calls["n"] == 1  # six units, three chunks, one spec parse


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_default_is_serial(self):
        assert resolve_policy() == ExecutionPolicy(backend="serial")
        assert resolve_policy("process").backend == "process"
        assert resolve_policy({"backend": "process", "max_workers": 3}).max_workers == 3

    def test_ambient_policy_reaches_nested_calls(self):
        ambient = ExecutionPolicy(backend="process", chunk_size=5)
        with use_policy(ambient):
            assert current_policy() is ambient
            assert resolve_policy() is ambient
        assert current_policy() is None

    def test_explicit_execution_beats_ambient(self):
        with use_policy(ExecutionPolicy(backend="process")):
            assert resolve_policy("serial").backend == "serial"

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(chunk_size=0)
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(max_workers=-1)
        with pytest.raises(ConfigurationError):
            policy_from_mapping({"backend": "proces"})  # typo → suggestion
        with pytest.raises(ConfigurationError):
            policy_from_mapping({"chunk_sizes": 4})  # unknown key
        with pytest.raises(ConfigurationError):
            policy_from_mapping({"resume": "yes"})
        policy = policy_from_mapping({"backend": "process", "chunk_size": 8})
        assert policy.backend == "process"
        assert policy.chunk_size == 8

    def test_unknown_backend_fails_with_suggestions(self):
        with pytest.raises(Exception, match="did you mean"):
            make_backend("seriall", 1)

    def test_deleted_backend_name_fails_in_config(self):
        assert sorted(BACKENDS) == ["process", "remote", "serial"]
        with pytest.raises(ConfigurationError, match="unknown execution backend 'thread'"):
            policy_from_mapping({"backend": "thread"})

    def test_command_default_backend_yields_to_the_block(self):
        """A block that only tunes chunking keeps the command's default backend."""
        import argparse

        from repro.scenarios.cli import _build_policy

        args = argparse.Namespace(
            backend=None, chunk_size=None, workers=None, resume=False,
            progress=False, no_store=True, store="results",
        )
        assert _build_policy(args).backend == "serial"
        policy = _build_policy(args, {"chunk_size": 4}, backend="process")
        assert policy.backend == "process"
        assert policy.chunk_size == 4
        # An explicit backend choice in the block wins over the command default.
        policy = _build_policy(args, {"backend": "remote"}, backend="process")
        assert policy.backend == "remote"
        # ... and --backend wins over both.
        args.backend = "serial"
        assert _build_policy(args, {"backend": "remote"}, backend="process").backend == "serial"

    @pytest.mark.parametrize("field", ["backend", "transport"])
    def test_non_string_backend_or_transport_names_the_field(self, field):
        with pytest.raises(ConfigurationError, match=f"'{field}' must be a string"):
            policy_from_mapping({field: ["process"]}, where="'execution' block")


# ---------------------------------------------------------------------------
# progress
# ---------------------------------------------------------------------------


class TestProgress:
    def test_reports_rate_and_total(self):
        stream = io.StringIO()
        reporter = ProgressReporter(10, label="demo", enabled=True, stream=stream)
        reporter.update(4)
        reporter.update(6)
        reporter.finish()
        output = stream.getvalue()
        assert "demo" in output
        assert "10/10 units" in output
        assert "rows/s" in output

    def test_disabled_reporter_is_silent(self):
        stream = io.StringIO()
        reporter = ProgressReporter(5, enabled=False, stream=stream)
        reporter.update(5)
        reporter.finish()
        assert stream.getvalue() == ""

    def test_restored_units_are_displayed_but_not_rated(self):
        stream = io.StringIO()
        reporter = ProgressReporter(6, enabled=True, already_done=4, stream=stream)
        assert "restored from journal" in stream.getvalue()
        reporter.update(2)
        reporter.finish()
        assert "6/6 units" in stream.getvalue()


# ---------------------------------------------------------------------------
# integration through run_scenario / store (byte-identical resumed entries)
# ---------------------------------------------------------------------------


class TestStoreByteIdentity:
    def test_resumed_cli_run_writes_byte_identical_entries(self, tmp_path, monkeypatch):
        """The full pipeline: interrupted store-backed sweep → resume →
        the store entry file equals the uninterrupted run's, byte for byte."""
        from repro.scenarios.cli import main

        config = {
            "kind": "sweep",
            "spec": tiny_spec(seeds=(0, 1)).to_dict(),
            "over": {"adversary.params.flip_prob": [0.0, 0.03, 0.06]},
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")

        straight = tmp_path / "straight"
        resumed = tmp_path / "resumed"
        assert main(["sweep", str(config_path), "--store", str(straight)]) == 0

        monkeypatch.setenv(INTERRUPT_ENV, "2")
        assert main(["sweep", str(config_path), "--store", str(resumed),
                     "--chunk-size", "1"]) == 130
        monkeypatch.delenv(INTERRUPT_ENV)
        assert list((resumed / ".journals").glob("*.jsonl"))
        assert main(["sweep", str(config_path), "--store", str(resumed), "--resume"]) == 0
        assert not list((resumed / ".journals").glob("*.jsonl"))

        (entry_a,) = sorted((straight / "sweeps").glob("*.json"))
        (entry_b,) = sorted((resumed / "sweeps").glob("*.json"))
        assert entry_a.name == entry_b.name
        payload_a = json.loads(entry_a.read_text(encoding="utf-8"))
        payload_b = json.loads(entry_b.read_text(encoding="utf-8"))
        # Provenance carries wall-clock telemetry; the rest must match exactly.
        payload_a.pop("provenance", None)
        payload_b.pop("provenance", None)
        assert canonical_json(payload_a) == canonical_json(payload_b)


class TestGcAndLog:
    def _populate(self, tmp_path):
        from repro.scenarios.cli import main

        configs = tmp_path / "configs"
        (configs / "scenarios").mkdir(parents=True)
        config = {"kind": "scenario", "spec": tiny_spec(seeds=(0,), name="gc-demo").to_dict()}
        path = configs / "scenarios" / "gc-demo.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        store = tmp_path / "store"
        assert main(["run", str(path), "--store", str(store)]) == 0
        return configs, store

    def test_gc_prunes_only_unreachable_entries(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        configs, store = self._populate(tmp_path)
        (live,) = (store / "scenarios").glob("*.json")
        stale = store / "scenarios" / "stale-000000000000.json"
        stale.write_text(live.read_text(encoding="utf-8"), encoding="utf-8")

        assert main(["gc", "--store", str(store), "--configs", str(configs), "--dry-run"]) == 0
        assert stale.exists()
        assert "would remove" in capsys.readouterr().out

        assert main(["gc", "--store", str(store), "--configs", str(configs)]) == 0
        assert not stale.exists()
        assert live.exists()

    def test_gc_can_clear_journals(self, tmp_path):
        from repro.scenarios.cli import main

        configs, store = self._populate(tmp_path)
        journal = store / ".journals" / "deadbeef.jsonl"
        journal.parent.mkdir(exist_ok=True)
        journal.write_text("{}\n", encoding="utf-8")
        assert main(["gc", "--store", str(store), "--configs", str(configs)]) == 0
        assert journal.exists()  # journals survive a plain gc
        assert main(
            ["gc", "--store", str(store), "--configs", str(configs), "--journals"]
        ) == 0
        assert not journal.exists()

    def test_gc_refuses_to_run_with_a_broken_config(self, tmp_path, capsys):
        """An unloadable config must abort gc — otherwise its entries would
        look unreachable and get deleted."""
        from repro.scenarios.cli import main

        configs, store = self._populate(tmp_path)
        (live,) = (store / "scenarios").glob("*.json")
        (configs / "scenarios" / "broken.json").write_text("{not json", encoding="utf-8")
        assert main(["gc", "--store", str(store), "--configs", str(configs)]) == 1
        assert "cannot compute gc reachability" in capsys.readouterr().err
        assert live.exists()

    def test_invalid_chunk_size_flag_is_rejected_not_ignored(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        configs, _ = self._populate(tmp_path)
        config_path = configs / "scenarios" / "gc-demo.json"
        code = main(["run", str(config_path), "--no-store", "--chunk-size", "0"])
        assert code == 1
        assert "chunk_size" in capsys.readouterr().err

    def test_log_lists_provenance(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        _, store = self._populate(tmp_path)
        assert main(["log", "--store", str(store)]) == 0
        output = capsys.readouterr().out
        assert "gc-demo" in output
        assert "written" in output
        assert main(["log", "--store", str(store), "--kind", "nope"]) == 0
        assert "no matching store entries" in capsys.readouterr().out

    def test_log_missing_store_fails(self, tmp_path):
        from repro.scenarios.cli import main

        assert main(["log", "--store", str(tmp_path / "absent")]) == 1
