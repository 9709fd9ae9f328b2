"""Observability layer: the run recorder, structured tracing, reporting.

Covers the trace sink and its schema, the recorder's one
``{name: (seconds, count)}`` table and its provenance block, the
instrumented simulator/runner/dispatcher paths, phase, event and trace
parity across backends, the worker-timings aggregation under re-dispatch,
and the consumer verbs (``repro trace``, ``repro report``) — including the
house invariant that tracing on/off leaves store rows byte-identical.
"""

import io
import json
import os
import re
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.exec import ExecutionPolicy, run_units, units_for_spec
from repro.exec.remote import RemoteBackend
from repro.exec.remote.worker import WORKER_INTERRUPT_ENV
from repro.exec.runner import INTERRUPT_ENV
from repro.exec.stats import (
    EXEC_DISPATCH,
    UNIT_METRICS,
    UNIT_ROUNDS,
    UNIT_SETUP,
    StatsCollector,
    collect_stats,
    metric_phase,
    record_phase,
    replay_phases,
)
from repro.exec.units import build_chunks
from repro.obs.trace import (
    EVENT_SCHEMA,
    TRACE_ENV,
    TraceSink,
    active_sink,
    emit,
    read_trace,
    refresh_from_env,
    trace_to,
    validate_event,
    validate_trace,
)
from repro.scenarios import ScenarioSpec, component, sweep
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


def _events(path, name=None):
    events = read_trace(path)
    if name is None:
        return events
    return [event for event in events if event["event"] == name]


# ---------------------------------------------------------------------------
# sink mechanics and enablement
# ---------------------------------------------------------------------------


class TestTraceSink:
    def test_emit_writes_valid_ndjson_with_envelope(self, tmp_path):
        path = tmp_path / "t.ndjson"
        sink = TraceSink(path)
        sink.emit("ping", worker="w0")
        sink.emit("ping", worker="w1")
        sink.close()
        events = read_trace(path)
        assert [event["seq"] for event in events] == [0, 1]
        for event in events:
            assert validate_event(event) == []
            assert isinstance(event["pid"], int)
            assert isinstance(event["t"], float)

    def test_emit_is_a_noop_without_a_sink(self, tmp_path):
        assert active_sink() is None
        emit("ping", worker="nowhere")  # must not raise or create files
        assert list(tmp_path.iterdir()) == []

    def test_trace_to_nests_and_restores(self, tmp_path):
        outer, inner = tmp_path / "outer.ndjson", tmp_path / "inner.ndjson"
        with trace_to(outer):
            emit("ping", worker="outer")
            with trace_to(inner):
                emit("ping", worker="inner")
            emit("ping", worker="outer-again")
        assert active_sink() is None
        assert [event["worker"] for event in _events(outer, "ping")] == [
            "outer",
            "outer-again",
        ]
        assert [event["worker"] for event in _events(inner, "ping")] == ["inner"]

    def test_env_enablement_appends(self, tmp_path, monkeypatch):
        path = tmp_path / "env.ndjson"
        path.write_text("", encoding="utf-8")
        monkeypatch.setenv(TRACE_ENV, str(path))
        refresh_from_env()
        try:
            emit("ping", worker="from-env")
            emit("ping", worker="again")
        finally:
            monkeypatch.delenv(TRACE_ENV)
            refresh_from_env()
        assert [event["worker"] for event in _events(path, "ping")] == [
            "from-env",
            "again",
        ]
        emit("ping", worker="after-refresh")  # env gone: back to a no-op
        assert len(_events(path, "ping")) == 2

    def test_numpy_scalars_are_coerced(self, tmp_path):
        numpy = pytest.importorskip("numpy")
        path = tmp_path / "np.ndjson"
        with trace_to(path):
            emit("chunk_done", chunk=numpy.int64(3), units=numpy.int32(2))
        (event,) = _events(path, "chunk_done")
        assert event["chunk"] == 3 and event["units"] == 2
        assert validate_event(event) == []


# ---------------------------------------------------------------------------
# schema validation
# ---------------------------------------------------------------------------


class TestValidation:
    def _record(self, **overrides):
        record = {
            "event": "chunk_done",
            "seq": 0,
            "pid": 1,
            "t": 1.0,
            "chunk": 0,
            "units": 3,
        }
        record.update(overrides)
        return record

    def test_valid_record_passes(self):
        assert validate_event(self._record()) == []

    def test_extra_fields_are_allowed(self):
        assert validate_event(self._record(note="extra")) == []

    def test_unknown_event_is_rejected(self):
        problems = validate_event(self._record(event="warp"))
        assert any("unknown event" in problem for problem in problems)

    def test_missing_field_is_rejected(self):
        record = self._record()
        del record["units"]
        assert any("missing field 'units'" in p for p in validate_event(record))

    def test_wrong_type_is_rejected(self):
        problems = validate_event(self._record(units="three"))
        assert any("'units' is not int" in problem for problem in problems)

    def test_bool_is_not_an_int(self):
        problems = validate_event(self._record(units=True))
        assert any("'units' is not int" in problem for problem in problems)

    def test_int_satisfies_float_fields(self):
        record = {
            "event": "batch_end",
            "seq": 0,
            "pid": 1,
            "t": 2,  # int where float is expected: fine
            "label": "x",
            "units": 3,
            "seconds": 4,
        }
        assert validate_event(record) == []

    def test_validate_trace_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        good = json.dumps(self._record())
        path.write_text(
            good + "\n" + "{torn\n" + '{"event":"warp","seq":1,"pid":1,"t":1.0}\n',
            encoding="utf-8",
        )
        problems = validate_trace(path)
        assert any(problem.startswith("line 2: invalid JSON") for problem in problems)
        assert any("line 3: unknown event" in problem for problem in problems)

    def test_read_trace_is_strict(self, tmp_path):
        path = tmp_path / "torn.ndjson"
        path.write_text("{not json\n", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="invalid trace line"):
            read_trace(path)


# ---------------------------------------------------------------------------
# the recorder: one {name: (seconds, count)} table and its provenance block
# ---------------------------------------------------------------------------


class TestRunTelemetry:
    def test_emit_counts_the_event_once(self, tmp_path):
        with collect_stats() as stats:
            emit("chunk_done", chunk=0, units=2)  # no sink: counted only
            path = tmp_path / "t.ndjson"
            with trace_to(path):
                emit("chunk_done", chunk=1, units=3)  # counted and written
        assert stats.events("chunk_done") == 2
        assert stats.seconds("chunk_done") == 0.0
        assert len(_events(path, "chunk_done")) == 1
        assert stats.as_provenance() == {"events": {"chunk_done": 2}}

    def test_empty_collector_yields_empty_block(self):
        assert StatsCollector().as_provenance() == {}

    def test_as_provenance_carries_phases(self):
        stats = StatsCollector()
        stats.add(UNIT_ROUNDS, 0.5)
        block = stats.as_provenance()
        assert block == {"phases": {UNIT_ROUNDS: {"seconds": 0.5, "events": 1}}}

    def test_provenance_block_layout(self):
        """Section order, key order and rounding of the stored block."""
        stats = StatsCollector()
        stats.add("z_phase", 0.123456)
        stats.add("a_phase", 1.0, count=3)
        stats.add("unit_end", 0.0)
        stats.add("chunk_done", 0.0, count=2)
        block = stats.as_provenance()
        assert list(block) == ["phases", "events"]
        assert list(block["phases"]) == ["a_phase", "z_phase"]
        assert block["phases"]["z_phase"] == {"seconds": 0.1235, "events": 1}
        assert block["phases"]["a_phase"] == {"seconds": 1.0, "events": 3}
        assert block["events"] == {"chunk_done": 2, "unit_end": 1}
        assert list(block["events"]) == ["chunk_done", "unit_end"]

    def test_replay_phases_folds_worker_totals(self):
        with collect_stats() as worker:
            record_phase(UNIT_ROUNDS, 0.25)
            record_phase(UNIT_ROUNDS, 0.5)
            emit("unit_end", seed=0, rounds=1, delivery="full")
        with collect_stats() as stats:
            replay_phases(worker.phase_totals())
            replay_phases({UNIT_ROUNDS: [1.0, 2]})  # the JSON wire form
        assert stats.seconds(UNIT_ROUNDS) == pytest.approx(1.75)
        assert stats.events(UNIT_ROUNDS) == 4
        assert stats.events("unit_end") == 1  # events ride the same table home
        replay_phases({UNIT_ROUNDS: (1.0, 1)})  # no collector: a no-op

    def test_recording_is_a_noop_when_off(self):
        record_phase("x", 1.0)  # none of these may raise without a collector
        emit("ping", worker="nowhere")

    def test_collect_stats_installs_and_restores(self):
        with collect_stats() as outer:
            with collect_stats() as stats:
                emit("chunk_done", chunk=0, units=2)
                emit("chunk_done", chunk=1, units=2)
            emit("chunk_done", chunk=2, units=1)  # lands in the restored outer collector
        emit("chunk_done", chunk=3, units=1)  # no collector: dropped
        assert stats.events("chunk_done") == 2
        assert outer.as_provenance() == {"events": {"chunk_done": 1}}

    def test_every_emitted_event_is_in_the_schema(self):
        """A literal ``emit("name", …)`` anywhere in the package names a schema
        event — an unlisted one would fail ``repro trace --validate`` and be
        filed under phases in the provenance block."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        pattern = re.compile(r"\bemit\(\s*\"([a-z_]+)\"")
        names = set()
        for path in src.rglob("*.py"):
            names.update(pattern.findall(path.read_text(encoding="utf-8")))
        assert {"round", "unit_begin", "chunk_done", "shm_publish", "dispatch"} <= names
        assert sorted(names - set(EVENT_SCHEMA)) == []


# ---------------------------------------------------------------------------
# instrumented pipeline: rounds, units, batches, byte-identity
# ---------------------------------------------------------------------------


class TestPipelineEvents:
    def test_run_units_emits_lifecycle_and_rows_match_untraced(self, tmp_path):
        units = units_for_spec(tiny_spec())
        baseline = run_units(units, ExecutionPolicy(backend="serial"))
        path = tmp_path / "run.ndjson"
        with trace_to(path):
            traced = run_units(units, ExecutionPolicy(backend="serial"))
        assert canonical_json(traced) == canonical_json(baseline)

        events = read_trace(path)
        assert validate_trace(path) == []
        counts = {}
        for event in events:
            counts[event["event"]] = counts.get(event["event"], 0) + 1
        assert counts["batch_begin"] == 1 and counts["batch_end"] == 1
        assert counts["unit_begin"] == 3 and counts["unit_end"] == 3
        assert counts["chunk_done"] >= 1
        assert counts["round"] > 0

        (begin,) = _events(path, "batch_begin")
        assert begin["units"] == 3 and begin["backend"] == "serial"
        rounds = _events(path, "round")
        assert all(event["mode"] in ("full", "incremental", "kernel") for event in rounds)
        for unit in _events(path, "unit_begin"):
            assert unit["algorithm"] == "dynamic-coloring"
            assert unit["adversary"] == "flip-churn"

    def test_kernel_engine_emits_round_events(self, tmp_path):
        spec = tiny_spec(
            algorithm="scolor",
            adversary=component("markov-churn", p_off=0.05, p_on=0.05),
            delivery="kernel",
            seeds=(0,),
        )
        units = units_for_spec(spec)
        path = tmp_path / "kernel.ndjson"
        with trace_to(path):
            run_units(units, ExecutionPolicy(backend="serial"))
        assert validate_trace(path) == []
        rounds = _events(path, "round")
        assert rounds and all(event["mode"] == "kernel" for event in rounds)
        for event in rounds:
            assert isinstance(event["frontier"], int)
            assert isinstance(event["quiescent"], bool)

    def test_interrupted_resume_emits_journal_restore(self, tmp_path, monkeypatch):
        units = units_for_spec(tiny_spec())
        journal_dir = tmp_path / "journals"
        policy = ExecutionPolicy(
            backend="serial", chunk_size=1, journal_dir=str(journal_dir)
        )
        monkeypatch.setenv(INTERRUPT_ENV, "1")
        with pytest.raises(KeyboardInterrupt):
            run_units(units, policy)
        monkeypatch.delenv(INTERRUPT_ENV)

        path = tmp_path / "resume.ndjson"
        resume = ExecutionPolicy(
            backend="serial", chunk_size=1, journal_dir=str(journal_dir), resume=True
        )
        with trace_to(path):
            rows = run_units(units, resume)
        assert len(rows) == 3
        (restore,) = _events(path, "journal_restore")
        assert restore["restored"] >= 1
        (begin,) = _events(path, "batch_begin")
        assert begin["restored"] == restore["restored"]

    def test_collector_counts_runner_events(self):
        units = units_for_spec(tiny_spec())
        with collect_stats() as stats:
            run_units(units, ExecutionPolicy(backend="serial"))
        events = stats.as_provenance()["events"]
        assert events["batch_begin"] == events["batch_end"] == 1
        assert events["unit_begin"] == events["unit_end"] == 3
        assert events["chunk_done"] >= 1
        assert "round" not in events  # per-round events are trace-only

    def test_traced_process_sweep_with_shared_topology_validates(self, tmp_path):
        """Two grid points share every seed, so the pooled batch publishes
        their topology to shared memory; the trace must stay schema-valid."""
        spec = tiny_spec(seeds=(0, 1))
        policy = ExecutionPolicy(backend="process", max_workers=2, chunk_size=1)
        path = tmp_path / "sweep.ndjson"
        with trace_to(path), collect_stats() as stats:
            sweep(spec, over={"algorithm": ["dynamic-coloring", "dynamic-mis"]}, execution=policy)
        assert validate_trace(path) == []
        published = _events(path, "shm_publish")
        assert published and published[0]["segments"] >= 1
        assert stats.events("shm_publish") == len(published)


# ---------------------------------------------------------------------------
# remote fabric: dispatch decisions and worker-timings aggregation
# ---------------------------------------------------------------------------


#: Events only some transports emit: the shared-memory publication of pooled
#: batches and the remote dispatcher's decisions.
_TRANSPORT_EVENTS = {"shm_publish", "dispatch", "chunk_result", "ping"}


@pytest.mark.parametrize("backend", ["serial", "process", "remote"])
def test_backend_telemetry_parity(backend):
    """Every backend reports the same phase keys and the same pipeline
    events, one unit-phase and one unit event per unit."""
    units = units_for_spec(tiny_spec(seeds=tuple(range(6))))
    policy = ExecutionPolicy(backend=backend, max_workers=2, chunk_size=2)
    with collect_stats() as stats:
        run_units(units, policy)
    block = stats.as_provenance()
    phases, events = block["phases"], block["events"]
    validity = metric_phase("validity")
    assert set(phases) == {UNIT_SETUP, UNIT_ROUNDS, UNIT_METRICS, validity, EXEC_DISPATCH}
    for phase in (UNIT_SETUP, UNIT_ROUNDS, UNIT_METRICS, validity):
        assert phases[phase]["events"] == len(units)
    # a metric's own phase is a share of the unit's metric phase
    assert phases[validity]["seconds"] <= phases[UNIT_METRICS]["seconds"]
    # No serial_fallback: the named backend did the work.
    assert set(events) - _TRANSPORT_EVENTS == {
        "batch_begin",
        "batch_end",
        "chunk_done",
        "unit_begin",
        "unit_end",
    }
    assert events["unit_begin"] == events["unit_end"] == len(units)
    assert events["chunk_done"] == 3


@pytest.mark.parametrize("backend", ["serial", "process", "remote"])
def test_trace_reaches_every_worker(backend, tmp_path):
    """``trace_to`` (what ``--trace`` installs) records the worker-side
    unit and round events on every backend, pooled and remote included."""
    units = units_for_spec(tiny_spec(seeds=tuple(range(4)), rounds=5))
    policy = ExecutionPolicy(backend=backend, max_workers=2, chunk_size=2)
    path = tmp_path / f"{backend}.ndjson"
    with trace_to(path):
        run_units(units, policy)
    assert os.environ.get(TRACE_ENV) is None  # restored after the block
    assert validate_trace(path) == []
    counts = {name: len(_events(path, name)) for name in ("unit_begin", "round", "unit_end")}
    assert counts == {"unit_begin": 4, "round": 4 * 5, "unit_end": 4}


class TestRemoteTimings:
    def test_redispatch_after_worker_death_does_not_double_count(
        self, tmp_path, monkeypatch, fleet_ready
    ):
        """Worker 0 dies mid-chunk; its chunk is re-dispatched.  The dead
        attempt must contribute neither rows, nor a chunk_result event, nor
        worker-reported phase seconds — only absorbed results count."""
        units = units_for_spec(tiny_spec(seeds=tuple(range(12))))
        expected = canonical_json(run_units(units, ExecutionPolicy(backend="serial")))

        path = tmp_path / "remote.ndjson"
        monkeypatch.setenv(WORKER_INTERRUPT_ENV, "2")
        backend = RemoteBackend(2)
        with trace_to(path), collect_stats() as stats, backend:
            fleet_ready(backend)
            got = dict(backend.submit_batch(build_chunks(units, 3)))
        monkeypatch.delenv(WORKER_INTERRUPT_ENV)

        rows = [row for index in sorted(got) for row in got[index]]
        assert canonical_json(rows) == expected
        workers_lost = stats.events("worker_lost")
        redispatched = stats.events("redispatch")
        assert workers_lost >= 1
        assert redispatched >= 1

        assert validate_trace(path) == []
        assert len(_events(path, "worker_lost")) == workers_lost
        assert len(_events(path, "redispatch")) == redispatched
        results = _events(path, "chunk_result")
        # Exactly one absorbed result per unit: a duplicate or dead attempt
        # never lands a second chunk_result for the same work.
        assert sum(event["units"] for event in results) == len(units)
        # Worker-side timings arrived and were replayed into ambient stats:
        # the seconds of the absorbed results, one event per unit.
        assert all(event["timings"] for event in results)
        expected_rounds = sum(
            event["timings"].get(UNIT_ROUNDS, 0.0) for event in results
        )
        assert stats.seconds(UNIT_ROUNDS) == pytest.approx(expected_rounds)
        assert stats.events(UNIT_ROUNDS) == len(units)

    def test_duplicate_result_is_dropped_before_timings_replay(self, tmp_path):
        """A slow worker answering for an already re-dispatched task is a
        duplicate: no rows, no timings replay, no chunk_result event."""
        path = tmp_path / "dup.ndjson"
        backend = RemoteBackend(1)
        message = {"index": 99, "rows": [], "phases": {UNIT_ROUNDS: [1.0, 1]}}
        with trace_to(path), collect_stats() as stats:
            outcome = backend._absorb_result(None, message, tasks={})
        assert outcome is None
        assert stats.events(UNIT_ROUNDS) == 0
        assert _events(path, "chunk_result") == []

    def test_event_counts_match_trace_lines(self, tmp_path, monkeypatch, fleet_ready):
        """Each event is recorded once: for every event the dispatcher
        emitted, the provenance count equals the trace's line count.  Worker
        events come home only with absorbed results, so the dead attempt's
        unit lines are in the trace but not in the counts."""
        units = units_for_spec(tiny_spec(seeds=tuple(range(8))))
        path = tmp_path / "fleet.ndjson"
        monkeypatch.setenv(WORKER_INTERRUPT_ENV, "2")
        backend = RemoteBackend(2)
        with trace_to(path), collect_stats() as stats, backend:
            fleet_ready(backend)
            list(backend.submit_batch(build_chunks(units, 2)))
        monkeypatch.delenv(WORKER_INTERRUPT_ENV)
        events = stats.as_provenance()["events"]
        lines = read_trace(path)
        here = {line["event"] for line in lines if line["pid"] == os.getpid()}
        assert {"dispatch", "worker_lost", "redispatch", "chunk_result"} <= here
        for name in here:
            assert events[name] == len(_events(path, name)), name
        assert events["worker_lost"] >= 1 and events["redispatch"] >= 1
        assert events["unit_begin"] == events["unit_end"] == len(units)
        assert len(_events(path, "unit_end")) >= len(units)


# ---------------------------------------------------------------------------
# CLI: --trace, the trace/report/log verbs
# ---------------------------------------------------------------------------


def _scenario_config(tmp_path):
    config = {
        "kind": "scenario",
        "spec": tiny_spec(name="obs-demo", seeds=(0, 1)).to_dict(),
    }
    path = tmp_path / "obs-demo.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def _entry(store):
    (path,) = sorted(store.glob("scenarios/*.json"))
    return path, json.loads(path.read_text(encoding="utf-8"))


class TestCli:
    def test_traced_run_keeps_store_rows_byte_identical(self, tmp_path):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        plain_store, traced_store = tmp_path / "plain", tmp_path / "traced"
        trace_path = tmp_path / "run.ndjson"
        assert main(["run", str(config), "--store", str(plain_store)]) == 0
        assert main(
            ["run", str(config), "--store", str(traced_store), "--trace", str(trace_path)]
        ) == 0
        assert validate_trace(trace_path) == []

        name_a, entry_a = _entry(plain_store)
        name_b, entry_b = _entry(traced_store)
        assert name_a.name == name_b.name
        assert canonical_json(entry_a["rows"]) == canonical_json(entry_b["rows"])
        assert entry_a["key_hash"] == entry_b["key_hash"]
        # Telemetry lands in provenance on both runs (metrics are always
        # collected); only the trace file is gated by the flag.
        assert "phases" in entry_b["provenance"]["telemetry"]

    def test_traced_rerun_leaves_existing_entry_untouched(self, tmp_path):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        store = tmp_path / "store"
        assert main(["run", str(config), "--store", str(store)]) == 0
        path, _ = _entry(store)
        before = path.read_bytes()
        assert main(
            ["run", str(config), "--store", str(store), "--trace", str(tmp_path / "t.ndjson")]
        ) == 0
        assert path.read_bytes() == before  # unchanged put: bytes untouched

    def test_trace_verb_summarises_filters_and_validates(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        trace_path = tmp_path / "run.ndjson"
        assert main(
            ["run", str(config), "--store", str(tmp_path / "store"),
             "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()

        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "event counts" in out and "rounds" in out

        assert main(["trace", str(trace_path), "--validate"]) == 0
        assert "schema-valid" in capsys.readouterr().out

        assert main(["trace", str(trace_path), "--event", "unit_end", "--raw"]) == 0
        raw = [line for line in capsys.readouterr().out.splitlines() if line]
        assert len(raw) == 2
        assert all(json.loads(line)["event"] == "unit_end" for line in raw)

        assert main(["trace", str(tmp_path / "missing.ndjson")]) == 1

    def test_trace_validate_fails_on_schema_problems(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        path = tmp_path / "bad.ndjson"
        path.write_text('{"event":"warp","seq":0,"pid":1,"t":1.0}\n', encoding="utf-8")
        assert main(["trace", str(path), "--validate"]) == 1
        assert "unknown event" in capsys.readouterr().err

    def test_report_verb_renders_markdown(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        store = tmp_path / "store"
        assert main(["run", str(config), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "# Study report" in out
        assert "## Phase-time splits" in out
        assert "## Event counts" in out
        assert "unit_begin" in out
        assert "| scenarios/obs-demo |" in out

        out_file = tmp_path / "report.md"
        assert main(["report", "--store", str(store), "--out", str(out_file)]) == 0
        assert "# Study report" in out_file.read_text(encoding="utf-8")

        assert main(["report", "--store", str(tmp_path / "empty")]) == 1

    def test_log_shows_top_phases(self, tmp_path, capsys):
        from repro.scenarios.cli import main

        config = _scenario_config(tmp_path)
        store = tmp_path / "store"
        assert main(["run", str(config), "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["log", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        # exec_dispatch wraps the whole batch, so it is always a top phase
        assert "phases" in out and "exec_dispatch=" in out

        assert main(["log", "--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any("telemetry" in entry for entry in payload["entries"])
        (entry,) = [entry for entry in payload["entries"] if "telemetry" in entry]
        assert "phases" in entry["telemetry"]


class TestVerifyProgress:
    def test_run_verify_streams_progress(self):
        from repro.verify.harness import run_verify

        stream = io.StringIO()
        verdicts = run_verify(
            suite="smoke",
            contracts=["time-scaling"],
            progress=True,
            progress_stream=stream,
        )
        assert verdicts and all(v.status == "pass" for v in verdicts)
        painted = stream.getvalue()
        assert "verify[smoke]" in painted and "1/1" in painted
