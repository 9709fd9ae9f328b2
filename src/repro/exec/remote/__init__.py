"""``repro.exec.remote`` — the distributed sweep fabric.

The ``remote`` execution backend ships work-unit chunks, in the JSON wire
form of :meth:`~repro.exec.units.Chunk.to_wire`, to a fleet of long-lived
workers on the far side of a pluggable :class:`~.transport.Transport`
(``loopback`` subprocesses for tests/CI, ``ssh`` for real machines), with
fault-tolerant re-dispatch, per-worker in-flight limits and worker-side
phase timing reports.  Each request is one of the runner's chunks, unchanged.  See
:mod:`repro.exec.remote.dispatcher` for the dispatch model and
:mod:`repro.exec.remote.worker` for the worker loop and its fault-injection
hooks.

Select it like any backend — ``--backend remote [--transport ssh --hosts
a,b=4]``, ``"execution": {"backend": "remote", ...}`` or
``ExecutionPolicy(backend="remote", transport=..., hosts=...)``.
"""

from repro.exec.remote.transport import (
    TRANSPORTS,
    WORKER_HANG_ENV,
    WORKER_INTERRUPT_ENV,
    Transport,
    WorkerLink,
    make_transport,
    parse_hosts,
)
from repro.exec.remote.dispatcher import RemoteBackend

__all__ = [
    "RemoteBackend",
    "TRANSPORTS",
    "Transport",
    "WORKER_HANG_ENV",
    "WORKER_INTERRUPT_ENV",
    "WorkerLink",
    "make_transport",
    "parse_hosts",
]
