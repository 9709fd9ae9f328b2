"""Observability: one run recorder, the NDJSON trace, store-backed reporting.

Run telemetry — phase times and event counts, plus the optional NDJSON
trace of the same events — goes through one recorder,
:mod:`repro.obs.trace`; :mod:`repro.exec.stats` re-exports it beside exec's
phase names.  Only that stdlib-dependency layer is re-exported here — the
simulator and the exec runner import this package, so pulling in
:mod:`repro.obs.report` (which reads the scenarios store) would create an
import cycle.  Consumers of the report renderer import it directly.
"""

from repro.obs.trace import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    TRACE_ENV,
    PhaseTotals,
    StatsCollector,
    TraceSink,
    active_sink,
    collect_stats,
    emit,
    read_trace,
    record_phase,
    refresh_from_env,
    replay_phases,
    timed_phase,
    trace_to,
    validate_event,
    validate_trace,
)

__all__ = [
    "EVENT_SCHEMA",
    "PhaseTotals",
    "SCHEMA_VERSION",
    "StatsCollector",
    "TRACE_ENV",
    "TraceSink",
    "active_sink",
    "collect_stats",
    "emit",
    "read_trace",
    "record_phase",
    "refresh_from_env",
    "replay_phases",
    "timed_phase",
    "trace_to",
    "validate_event",
    "validate_trace",
]
