"""Tests for the distributed sweep fabric (``repro.exec.remote``) and its
CLI surfaces (``--backend remote``, ``repro audit``, ``repro repair``,
``repro log --json``).

The loopback transport spawns real worker subprocesses, so every test here
exercises a genuine process boundary: byte-identity against the serial
reference, re-dispatch after a killed worker, timeout recovery after a hung
worker, serial fallback when the whole fleet dies, and the audit → repair →
byte-identical-store loop the CI fabric-smoke job gates on.
"""

import json
import time

import pytest

from repro.errors import ConfigurationError
from repro.exec import (
    ExecutionPolicy,
    RateEstimator,
    build_chunks,
    make_backend,
    run_units,
    units_for_spec,
)
from repro.exec.policy import policy_from_mapping
from repro.exec.progress import ProgressReporter
from repro.exec.remote import (
    WORKER_HANG_ENV,
    WORKER_INTERRUPT_ENV,
    RemoteBackend,
    parse_hosts,
)
from repro.exec.remote.dispatcher import _Task, _WorkerState
from repro.exec.remote.transport import SshTransport, worker_fault_env
from repro.exec.runner import INTERRUPT_ENV
from repro.exec.stats import collect_stats
from repro.exec.units import execute_chunk
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.audit import Finding, audit_store, journal_status
from repro.scenarios.store import ResultsStore, canonical_json, content_key


class _SilentLink:
    """A worker link that records what is sent to it and never answers."""

    worker_id, name, slots = 0, "silent", 1

    def __init__(self):
        self.sent = []

    def alive(self):
        return True

    def send(self, text):
        self.sent.append(text)

    def kill(self):
        pass


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


@pytest.fixture(scope="module")
def reference():
    """A 12-unit batch plus its serial rows (the byte-identity baseline)."""
    units = units_for_spec(tiny_spec(seeds=tuple(range(12))))
    rows = run_units(units, ExecutionPolicy(backend="serial"))
    return units, canonical_json(rows)


# ---------------------------------------------------------------------------
# transports and hosts
# ---------------------------------------------------------------------------


class TestTransports:
    def test_parse_hosts(self):
        assert parse_hosts(["a", "b=4", " c =2"]) == [("a", 1), ("b", 4), ("c", 2)]

    @pytest.mark.parametrize("bad", [["=3"], ["host=0"], ["host=fast"], [""]])
    def test_parse_hosts_rejects_bad_entries(self, bad):
        with pytest.raises(ConfigurationError):
            parse_hosts(bad)

    def test_ssh_command_shape(self):
        transport = SshTransport(remote_python="python3.11")
        command = transport.command("node-7")
        assert command[:3] == ["ssh", "-o", "BatchMode=yes"]
        assert command[3] == "node-7"
        assert "python3.11 -u -m repro.exec.remote.worker" == command[4]

    def test_ssh_requires_hosts(self):
        with pytest.raises(ConfigurationError, match="hosts"):
            SshTransport().launch(2, None, inbox=None)

    def test_fault_envs_reach_worker_zero_only(self, monkeypatch):
        monkeypatch.setenv(WORKER_INTERRUPT_ENV, "3")
        monkeypatch.setenv(WORKER_HANG_ENV, "5")
        assert worker_fault_env(0)[WORKER_INTERRUPT_ENV] == "3"
        assert WORKER_INTERRUPT_ENV not in worker_fault_env(1)
        assert WORKER_HANG_ENV not in worker_fault_env(2)


# ---------------------------------------------------------------------------
# byte identity
# ---------------------------------------------------------------------------


class TestRemoteByteIdentity:
    def test_remote_rows_byte_identical_to_serial(self, reference):
        units, expected = reference
        policy = ExecutionPolicy(backend="remote", max_workers=2, chunk_size=3)
        assert canonical_json(run_units(units, policy)) == expected

    def test_heterogeneous_slots_fleet(self, reference):
        units, expected = reference
        policy = ExecutionPolicy(backend="remote", hosts=("fast=3", "slow"))
        assert canonical_json(run_units(units, policy)) == expected

    def test_chunks_are_dispatched_whole(self, reference):
        """Each runner chunk is one dispatch and one result, never re-sized."""
        units, expected = reference
        chunks = build_chunks(units, 6)
        backend = RemoteBackend(2)
        with collect_stats() as stats, backend:
            got = dict(backend.submit_batch(chunks))
        assert stats.events("dispatch") == stats.events("chunk_result") == len(chunks)
        assert {index: len(rows) for index, rows in got.items()} == {0: 6, 1: 6}
        rows = [row for index in sorted(got) for row in got[index]]
        assert canonical_json(rows) == expected

    def test_noncontiguous_chunk_indices_round_trip(self, reference):
        """A subset batch that keeps its original chunk indices (the runner's
        fallback shape) comes back keyed by those indices."""
        units, _ = reference
        chunks = build_chunks(units, 3)[2:]  # indices 2 and 3, not 0..len-1
        backend = RemoteBackend(2)
        with backend:
            got = dict(backend.submit_batch(chunks))
        assert sorted(got) == [2, 3]
        for chunk in chunks:
            serial, _ = execute_chunk((chunk.spec_key, chunk.spec_dict, chunk.seeds))
            assert canonical_json(got[chunk.index]) == canonical_json(serial)


# ---------------------------------------------------------------------------
# fault tolerance
# ---------------------------------------------------------------------------


class TestFaultTolerance:
    def test_killed_worker_chunks_are_redispatched(self, reference, monkeypatch, fleet_ready):
        """Worker 0 hard-exits mid-chunk; the survivor absorbs its work."""
        units, expected = reference
        monkeypatch.setenv(WORKER_INTERRUPT_ENV, "2")
        backend = RemoteBackend(2)
        with collect_stats() as stats, backend:
            fleet_ready(backend)
            got = dict(backend.submit_batch(build_chunks(units, 3)))
        assert stats.events("worker_lost") >= 1
        assert stats.events("redispatch") >= 1
        rows = [row for index in sorted(got) for row in got[index]]
        assert canonical_json(rows) == expected

    def test_hung_worker_times_out_and_is_replaced(self, reference, monkeypatch, fleet_ready):
        """Worker 0 wedges (alive but silent); the deadline detector kills it
        and re-dispatches its in-flight chunk."""
        units, expected = reference
        monkeypatch.setenv(WORKER_HANG_ENV, "1")
        backend = RemoteBackend(2, task_timeout=5.0, heartbeat_interval=0.5)
        with collect_stats() as stats, backend:
            fleet_ready(backend)
            got = dict(backend.submit_batch(build_chunks(units, 3)))
        assert stats.events("worker_lost") >= 1
        rows = [row for index in sorted(got) for row in got[index]]
        assert canonical_json(rows) == expected

    def test_whole_fleet_dead_falls_back_to_serial(self, reference, monkeypatch):
        """A single worker that always dies exhausts the fleet; run_units
        recovers through the serial fallback with identical rows."""
        units, expected = reference
        monkeypatch.setenv(WORKER_INTERRUPT_ENV, "1")
        policy = ExecutionPolicy(backend="remote", max_workers=1, chunk_size=3)
        assert canonical_json(run_units(units, policy)) == expected

    def test_worker_loop_lets_signals_propagate(self, reference, monkeypatch):
        """KeyboardInterrupt/SystemExit during a chunk stop the worker instead
        of being swallowed as a chunk error."""
        import io

        from repro.exec.remote import worker as worker_mod

        def boom(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(worker_mod, "execute_unit", boom)
        units, _ = reference
        request = build_chunks(units[:1], 1)[0].to_wire() + "\n"
        with pytest.raises(KeyboardInterrupt):
            worker_mod.main(io.StringIO(request), io.StringIO())

    def test_idle_wedged_worker_is_reaped_on_missed_pong(self):
        """A ping leaves a pong deadline; a worker that never answers (and
        sends nothing else) is reaped instead of being pinged forever."""
        backend = RemoteBackend(1, heartbeat_interval=0.0)
        link = _SilentLink()
        state = _WorkerState(link)
        state.ready = True
        backend._workers = {0: state}
        with collect_stats() as stats:
            backend._heartbeat({}, [])  # idle past the interval: ping goes out
            assert link.sent and state.pong_deadline is not None
            state.pong_deadline = 0.0  # the grace lapsed with no line at all
            backend._heartbeat({}, [])
        assert 0 not in backend._workers
        assert stats.events("worker_lost") == 1

    def test_worker_side_unit_error_reaches_the_caller(self, reference):
        """A genuine unit failure (unknown component in the worker) is a
        BackendError from the dispatcher, not an endless retry loop."""
        from repro.exec.backends import BackendError

        spec_dict = tiny_spec(seeds=(0,)).to_dict()
        spec_dict["metrics"] = [{"name": "no-such-metric-anywhere", "params": {}}]
        from repro.exec.units import WorkUnit

        unit = WorkUnit(spec_dict=spec_dict, seed=0, spec_key=content_key(spec_dict))
        backend = RemoteBackend(1)
        with backend, pytest.raises(BackendError, match="no-such-metric"):
            list(backend.submit_batch(build_chunks([unit], 1)))


# ---------------------------------------------------------------------------
# policy / options plumbing
# ---------------------------------------------------------------------------


class TestPolicyPlumbing:
    def test_mapping_accepts_transport_and_hosts(self):
        policy = policy_from_mapping(
            {"backend": "remote", "transport": "loopback", "hosts": ["a", "b=2"]}
        )
        assert policy.transport == "loopback"
        assert policy.hosts == ("a", "b=2")
        assert policy.backend_options() == {"transport": "loopback", "hosts": ["a", "b=2"]}

    def test_mapping_rejects_unknown_transport(self):
        with pytest.raises(ConfigurationError, match="loopback"):
            policy_from_mapping({"backend": "remote", "transport": "loopbak"})

    @pytest.mark.parametrize("hosts", ["a,b", ["a", "b=0"], [1, 2]])
    def test_mapping_rejects_bad_hosts(self, hosts):
        with pytest.raises(ConfigurationError):
            policy_from_mapping({"backend": "remote", "hosts": hosts})

    def test_transport_options_rejected_by_local_backends(self):
        with pytest.raises(ConfigurationError, match="transport options"):
            make_backend("process", 2, {"transport": "loopback"})

    def test_single_unit_downgrade_drops_transport_options(self):
        """A one-unit batch under a remote policy downgrades to serial inside
        run_units; the policy's transport/hosts must not reach
        make_backend('serial') (regression: ConfigurationError crash)."""
        units = units_for_spec(tiny_spec(seeds=(0,)))
        expected = canonical_json(run_units(units, ExecutionPolicy(backend="serial")))
        policy = ExecutionPolicy(
            backend="remote", transport="loopback", hosts=("a", "b=2")
        )
        assert canonical_json(run_units(units, policy)) == expected


# ---------------------------------------------------------------------------
# rate estimation and progress display
# ---------------------------------------------------------------------------


class _Clock:
    """A hand-advanced stand-in for ``time.perf_counter``."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        return self.now


class TestRateEstimator:
    """The runner's throughput estimate: completions in, rows/sec out."""

    def test_observed_batches_set_rate(self, monkeypatch):
        from repro.exec import stats

        clock = _Clock()
        monkeypatch.setattr(stats, "time", clock)
        estimator = RateEstimator()
        assert estimator.rate is None
        clock.now = 2.0
        estimator.observe_batch(10)
        assert estimator.rate == pytest.approx(5.0)

    def test_smoothing_tracks_recent_rate(self, monkeypatch):
        from repro.exec import stats

        clock = _Clock()
        monkeypatch.setattr(stats, "time", clock)
        estimator = RateEstimator()
        clock.now += 1.0
        estimator.observe_batch(10)
        for _ in range(50):
            clock.now += 1.0
            estimator.observe_batch(20)
        assert estimator.rate == pytest.approx(20.0, rel=0.05)

    def test_progress_uses_estimator_rate(self, monkeypatch):
        import io

        from repro.exec import stats

        clock = _Clock()
        monkeypatch.setattr(stats, "time", clock)
        estimator = RateEstimator()
        clock.now = 0.1
        estimator.observe_batch(10)  # 100 units/s
        stream = io.StringIO()
        reporter = ProgressReporter(
            10, label="demo", enabled=True, stream=stream, rate_source=estimator
        )
        reporter.update(10)
        reporter.finish()
        assert "100.0 rows/s" in stream.getvalue()


class TestDeadlineCost:
    """The dispatcher's private per-unit cost: worker seconds in, deadlines out."""

    @staticmethod
    def _absorb(backend, seconds, units=2):
        chunk = build_chunks(units_for_spec(tiny_spec(seeds=tuple(range(units)))), units)[0]
        state = _WorkerState(_SilentLink())
        message = {"index": chunk.index, "rows": [{}] * units, "seconds": seconds}
        assert backend._absorb_result(state, message, {chunk.index: _Task(chunk)})

    def test_default_deadline_before_any_report(self):
        backend = RemoteBackend(1)
        before = time.monotonic()
        assert backend._deadline_for(5) - before == pytest.approx(60.0, abs=1.0)

    def test_reported_cost_scales_the_deadline(self):
        backend = RemoteBackend(1)
        self._absorb(backend, seconds=40.0)  # 20 s/unit
        before = time.monotonic()
        assert backend._deadline_for(3) - before == pytest.approx(600.0, abs=1.0)
        self._absorb(backend, seconds=80.0)  # 40 s/unit sample, EMA -> 26 s/unit
        before = time.monotonic()
        assert backend._deadline_for(1) - before == pytest.approx(260.0, abs=1.0)

    def test_task_timeout_overrides_the_cost(self):
        backend = RemoteBackend(1, task_timeout=5.0)
        self._absorb(backend, seconds=40.0)
        before = time.monotonic()
        assert backend._deadline_for(3) - before == pytest.approx(5.0, abs=1.0)


class TestWorkerSetupTiming:
    def test_worker_times_the_topology_build_as_unit_setup(self, monkeypatch):
        """The worker times spec parsing and the base-topology build inside
        the units' window, as every local backend does: a 0.2 s build shows
        up in ``unit_setup`` and nothing is reported beside it."""
        import io

        from repro.exec.cache import topology_cache_clear
        from repro.exec.remote import worker as worker_mod
        from repro.scenarios.registry import TOPOLOGIES

        build = TOPOLOGIES.get("gnp_sparse")

        def slow_build(*args, **kwargs):
            time.sleep(0.2)
            return build(*args, **kwargs)

        monkeypatch.setitem(TOPOLOGIES._entries, "gnp_sparse", slow_build)
        topology_cache_clear()
        (chunk,) = build_chunks(units_for_spec(tiny_spec(seeds=(7,))), 1)
        out = io.StringIO()
        worker_mod.main(io.StringIO(chunk.to_wire() + "\n"), out)
        ready, response = [json.loads(line) for line in out.getvalue().splitlines()]
        assert ready["ready"] is True
        assert "prewarm_seconds" not in response
        setup_seconds, setup_events = response["phases"]["unit_setup"]
        assert setup_events == 1
        assert setup_seconds >= 0.2
        assert response["seconds"] >= setup_seconds


# ---------------------------------------------------------------------------
# audit / repair / log --json (the store-tree housekeeping loop)
# ---------------------------------------------------------------------------


def _sweep_config(tmp_path, seeds=(0, 1)):
    configs = tmp_path / "configs"
    (configs / "sweeps").mkdir(parents=True)
    config = {
        "kind": "sweep",
        "spec": tiny_spec(seeds=seeds, name="fabric-demo").to_dict(),
        "over": {"adversary.params.flip_prob": [0.0, 0.03, 0.06]},
    }
    path = configs / "sweeps" / "fabric-demo.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return configs, path


def _entry_sans_provenance(path):
    """Entry payload with provenance stripped — provenance carries wall-clock
    telemetry, so independently computed stores only agree on the rest."""
    data = json.loads(path.read_text(encoding="utf-8"))
    data.pop("provenance", None)
    return canonical_json(data)


class TestAuditRepair:
    def test_audit_missing_store_fails(self, tmp_path):
        from repro.scenarios.cli import main

        assert main(["audit", "--store", str(tmp_path / "absent")]) == 1

    def test_audit_clean_store(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        configs, config_path = _sweep_config(tmp_path)
        store = tmp_path / "store"
        assert main(["sweep", str(config_path), "--store", str(store)]) == 0
        assert main(["audit", "--store", str(store)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_audit_findings_and_json(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        configs, config_path = _sweep_config(tmp_path)
        store = tmp_path / "store"
        assert main(["sweep", str(config_path), "--store", str(store)]) == 0
        (entry,) = (store / "sweeps").glob("*.json")

        # torn write, corrupt entry, key drift, misfiled copy, schema drift
        (store / "sweeps" / "x.json.tmp").write_text("{", encoding="utf-8")
        (store / "sweeps" / "corrupt-000000000000.json").write_text("{", encoding="utf-8")
        data = json.loads(entry.read_text(encoding="utf-8"))
        drifted = dict(data, key_hash="0" * 64)
        (store / "sweeps" / "drift-000000000000.json").write_text(
            json.dumps(drifted), encoding="utf-8"
        )
        (store / "sweeps" / "misfiled-badbadbadbad.json").write_text(
            entry.read_text(encoding="utf-8"), encoding="utf-8"
        )
        schema = dict(data, row_schema=["only_this"])
        (store / "sweeps" / "schema-000000000000.json").write_text(
            json.dumps(schema), encoding="utf-8"
        )

        capsys.readouterr()  # drop the sweep's own table output
        assert main(["audit", "--store", str(store), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        categories = {finding["category"] for finding in report["findings"]}
        assert categories == {
            "torn-write",
            "corrupt-entry",
            "key-drift",
            "misfiled",
            "schema-drift",
        }
        assert report["clean"] is False

    def test_interrupted_remote_sweep_audit_repair_byte_identity(self, tmp_path, monkeypatch):
        """The acceptance loop: remote sweep with one worker killed mid-chunk
        and the dispatcher interrupted mid-batch → audit flags the journal →
        repair resumes only the missing units → entry equals the serial one
        byte for byte → audit is clean."""
        from repro.scenarios.cli import main

        configs, config_path = _sweep_config(tmp_path)
        serial_store = tmp_path / "serial"
        remote_store = tmp_path / "remote"
        assert main(["sweep", str(config_path), "--store", str(serial_store)]) == 0

        monkeypatch.setenv(WORKER_INTERRUPT_ENV, "1")  # worker 0 dies mid-chunk
        monkeypatch.setenv(INTERRUPT_ENV, "3")  # then the dispatcher dies
        code = main(
            ["sweep", str(config_path), "--store", str(remote_store),
             "--backend", "remote", "--workers", "2", "--chunk-size", "1"]
        )
        assert code == 130
        monkeypatch.delenv(WORKER_INTERRUPT_ENV)
        monkeypatch.delenv(INTERRUPT_ENV)

        assert main(["audit", "--store", str(remote_store)]) == 1
        assert main(
            ["repair", "--store", str(remote_store), "--configs", str(configs),
             "--backend", "remote", "--workers", "2"]
        ) == 0
        assert main(["audit", "--store", str(remote_store)]) == 0

        (entry_a,) = sorted((serial_store / "sweeps").glob("*.json"))
        (entry_b,) = sorted((remote_store / "sweeps").glob("*.json"))
        assert entry_a.name == entry_b.name
        assert _entry_sans_provenance(entry_a) == _entry_sans_provenance(entry_b)

    def test_resume_tolerates_torn_journal_line(self, tmp_path, monkeypatch):
        """A torn final journal line (kill mid-write) must not poison the
        resume: the store entry still equals the uninterrupted run's."""
        from repro.scenarios.cli import main

        configs, config_path = _sweep_config(tmp_path)
        straight = tmp_path / "straight"
        resumed = tmp_path / "resumed"
        assert main(["sweep", str(config_path), "--store", str(straight)]) == 0

        monkeypatch.setenv(INTERRUPT_ENV, "2")
        assert main(
            ["sweep", str(config_path), "--store", str(resumed),
             "--backend", "remote", "--workers", "2", "--chunk-size", "1"]
        ) == 130
        monkeypatch.delenv(INTERRUPT_ENV)
        (journal,) = (resumed / ".journals").glob("*.jsonl")
        with journal.open("a", encoding="utf-8") as handle:
            handle.write('{"i": 5, "u": "torn-mid-wr')  # no newline: torn
        status = journal_status(journal)
        assert status["torn"] is True

        assert main(
            ["sweep", str(config_path), "--store", str(resumed),
             "--backend", "remote", "--workers", "2", "--resume"]
        ) == 0
        (entry_a,) = sorted((straight / "sweeps").glob("*.json"))
        (entry_b,) = sorted((resumed / "sweeps").glob("*.json"))
        assert _entry_sans_provenance(entry_a) == _entry_sans_provenance(entry_b)

    def test_repair_dry_run_and_unmatched_journal(self, tmp_path, capsys, monkeypatch):
        from repro.scenarios.cli import main

        configs, config_path = _sweep_config(tmp_path)
        store = tmp_path / "store"
        monkeypatch.setenv(INTERRUPT_ENV, "2")
        assert main(
            ["sweep", str(config_path), "--store", str(store), "--chunk-size", "1"]
        ) == 130
        monkeypatch.delenv(INTERRUPT_ENV)

        assert main(
            ["repair", "--store", str(store), "--configs", str(configs), "--dry-run"]
        ) == 0
        assert "would repair" in capsys.readouterr().out

        orphan = store / ".journals" / ("ff" * 12 + ".jsonl")
        orphan.write_text(
            json.dumps({"format": "repro-journal/1", "total": 4}) + "\n", encoding="utf-8"
        )
        assert main(["repair", "--store", str(store), "--configs", str(configs)]) == 1
        assert "unmatched journal" in capsys.readouterr().err
        assert list((store / ".journals").glob("*.jsonl")) == [orphan]  # orphan remains

    def test_repair_removes_torn_writes(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        configs, config_path = _sweep_config(tmp_path)
        store = tmp_path / "store"
        assert main(["sweep", str(config_path), "--store", str(store)]) == 0
        scratch = store / "sweeps" / "x.json.tmp"
        scratch.write_text("{", encoding="utf-8")
        assert main(["repair", "--store", str(store), "--configs", str(configs)]) == 0
        assert not scratch.exists()

    def test_log_json(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        configs, config_path = _sweep_config(tmp_path)
        store = tmp_path / "store"
        assert main(["sweep", str(config_path), "--store", str(store)]) == 0
        capsys.readouterr()  # drop the sweep's own table output
        assert main(["log", "--store", str(store), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == 1
        (entry,) = report["entries"]
        assert entry["label"] == "fabric-demo"
        assert entry["rows"] == 6

    def test_audit_store_api_reports_interrupted_counts(self, tmp_path, monkeypatch):
        from repro.scenarios.cli import main

        configs, config_path = _sweep_config(tmp_path)
        store = tmp_path / "store"
        monkeypatch.setenv(INTERRUPT_ENV, "2")
        assert main(
            ["sweep", str(config_path), "--store", str(store), "--chunk-size", "1"]
        ) == 130
        monkeypatch.delenv(INTERRUPT_ENV)
        findings = audit_store(store)
        assert [finding.category for finding in findings] == ["interrupted"]
        assert "2/6 units complete" in findings[0].message
        assert isinstance(findings[0], Finding)
