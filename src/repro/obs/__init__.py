"""Observability: structured tracing and store-backed reporting.

Run telemetry — phase totals, counters, gauges and histograms — lives in
one collector, :mod:`repro.exec.stats`.  Only the stdlib-dependency trace
layer (:mod:`repro.obs.trace`) is re-exported here — the simulator and the
exec runner import this package, so pulling in :mod:`repro.obs.report`
(which reads the scenarios store) would create an import cycle.  Consumers
of the report renderer import it directly.
"""

from repro.obs.trace import (
    EVENT_SCHEMA,
    SCHEMA_VERSION,
    TRACE_ENV,
    TelemetryConfig,
    TraceSink,
    active_sink,
    emit,
    read_trace,
    refresh_from_env,
    telemetry_from_mapping,
    trace_to,
    validate_event,
    validate_trace,
)

__all__ = [
    "EVENT_SCHEMA",
    "SCHEMA_VERSION",
    "TRACE_ENV",
    "TelemetryConfig",
    "TraceSink",
    "active_sink",
    "emit",
    "read_trace",
    "refresh_from_env",
    "telemetry_from_mapping",
    "trace_to",
    "validate_event",
    "validate_trace",
]
