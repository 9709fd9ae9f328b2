"""``repro.exec`` — the pluggable execution-backend subsystem.

Everything the pipeline runs is a batch of *work units* — pure
``(spec-dict, seed)`` jobs (:mod:`repro.exec.units`) — dispatched in chunks
through a registered :class:`~repro.exec.backends.Backend` under an
:class:`~repro.exec.policy.ExecutionPolicy`, with optional sweep-journal
checkpointing (:mod:`repro.exec.journal`) and progress reporting
(:mod:`repro.exec.progress`).  :func:`~repro.exec.runner.run_units` is the
single entry point; ``run_scenario``/``sweep``, the ``repro`` CLI and the
benchmarks all execute through it.

>>> from repro.exec import BACKENDS
>>> sorted(BACKENDS)
['process', 'remote', 'serial']

Backends are a registry like every other scenario component, so a remote or
cluster-scale runner plugs in without touching the pipeline::

    from repro.exec import BACKENDS

    @BACKENDS.register("my-cluster")
    def _build(max_workers):
        return MyClusterBackend(max_workers)

The distributed-ready seam is the JSON wire contract
(:meth:`~repro.exec.units.Chunk.to_wire` /
:meth:`~repro.exec.units.Chunk.from_wire`): the ``remote`` backend
(:mod:`repro.exec.remote`) carries those strings over pluggable transports
to long-lived workers, on this machine (``loopback``) or others (``ssh``).
"""

from repro.exec.units import (
    Chunk,
    WorkUnit,
    auto_chunk_size,
    batch_key,
    build_chunks,
    execute_chunk,
    execute_unit,
    units_for_spec,
)
from repro.exec.backends import BACKENDS, Backend, BackendError, make_backend
from repro.exec.cache import (
    cached_base_topology,
    topology_cache_clear,
    topology_cache_info,
)
from repro.exec.stats import (
    RateEstimator,
    StatsCollector,
    collect_stats,
    record_phase,
    timed_phase,
)
from repro.exec.policy import (
    ExecutionPolicy,
    current_policy,
    policy_from_mapping,
    resolve_policy,
    use_policy,
)
from repro.exec.journal import SweepJournal
from repro.exec.progress import ProgressReporter
from repro.exec.runner import INTERRUPT_ENV, run_units

# Importing the remote package registers the ``remote`` backend; it must come
# after ``backends`` (the registry) and ``units`` (the wire contract).
from repro.exec.remote import (  # noqa: E402
    TRANSPORTS,
    RemoteBackend,
    WORKER_HANG_ENV,
    WORKER_INTERRUPT_ENV,
    parse_hosts,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendError",
    "Chunk",
    "ExecutionPolicy",
    "INTERRUPT_ENV",
    "ProgressReporter",
    "RateEstimator",
    "RemoteBackend",
    "StatsCollector",
    "SweepJournal",
    "TRANSPORTS",
    "WORKER_HANG_ENV",
    "WORKER_INTERRUPT_ENV",
    "WorkUnit",
    "auto_chunk_size",
    "batch_key",
    "build_chunks",
    "cached_base_topology",
    "collect_stats",
    "current_policy",
    "execute_chunk",
    "execute_unit",
    "make_backend",
    "parse_hosts",
    "policy_from_mapping",
    "record_phase",
    "resolve_policy",
    "run_units",
    "timed_phase",
    "topology_cache_clear",
    "topology_cache_info",
    "units_for_spec",
    "use_policy",
]
