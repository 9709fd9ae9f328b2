"""Execution policies: *how* a batch of work units runs.

An :class:`ExecutionPolicy` bundles every execution knob the pipeline
exposes — backend name, chunk size, worker count, checkpoint/resume and
progress reporting — separated from *what* runs (the specs).  Policies come
from three places, in increasing precedence:

1. built-in defaults (serial, auto chunking),
2. a config file's ``"execution"`` block (see ``configs/README.md``),
3. CLI flags (``--backend``, ``--chunk-size``, ``--workers``, ``--resume``,
   ``--progress``).

:func:`use_policy` installs a policy as the *ambient* policy for a code
region.  A ``run_scenario``/``sweep`` call without an ``execution=``
argument deep inside an experiment function then picks it up without every
call site growing new parameters — that is how ``repro experiments
--backend remote`` reaches the scenario runs of the E1–E13 implementations
unchanged.  Outside any ``use_policy`` region such a call runs serially.

:class:`repro.verify.policy.VerificationPolicy` is the verification sibling
of this module: same defaults < config block < CLI flags precedence, same
ambient-context installation (``use_verification``), applied to the in-run
equivalence gates instead of the execution backend.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "ExecutionPolicy",
    "current_policy",
    "default_workers",
    "policy_from_mapping",
    "resolve_policy",
    "use_policy",
]

#: Keys an ``"execution"`` config block may contain.
_POLICY_KEYS = {
    "backend",
    "chunk_size",
    "max_workers",
    "resume",
    "progress",
    "transport",
    "hosts",
}


@dataclass(frozen=True)
class ExecutionPolicy:
    """How to execute a batch of work units.

    Parameters
    ----------
    backend:
        Registered backend name (``serial`` / ``process`` / ``remote`` /
        plugins).
    chunk_size:
        Units per dispatch chunk; ``None`` auto-sizes from the batch and
        worker count (see :func:`~repro.exec.units.auto_chunk_size`).
    max_workers:
        Worker count for pooled backends; ``None`` uses the CPU count.  When
        left at ``None`` on a single-CPU host, the ``process`` backend
        degrades to ``serial`` (a pool cannot beat the serial loop there).
    resume:
        Reuse a matching sweep journal's completed units instead of
        recomputing them.
    progress:
        Report rows/sec and ETA to stderr while the batch runs.
    journal_dir:
        Directory for sweep journals; ``None`` disables checkpointing.
    transport:
        Remote transport name for the ``remote`` backend (``loopback`` /
        ``ssh``); ``None`` uses the backend default (``loopback``).
    hosts:
        Fleet member list for the ``remote`` backend: ``host`` or
        ``host=slots`` entries (``slots`` = that worker's in-flight limit).
    """

    backend: str = "serial"
    chunk_size: Optional[int] = None
    max_workers: Optional[int] = None
    resume: bool = False
    progress: bool = False
    journal_dir: Optional[str] = None
    transport: Optional[str] = None
    hosts: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if not isinstance(self.backend, str) or not self.backend:
            raise ConfigurationError(f"backend must be a non-empty string, got {self.backend!r}")
        for field_name in ("chunk_size", "max_workers"):
            value = getattr(self, field_name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"{field_name} must be a positive integer or null, got {value!r}"
                )
        if self.transport is not None and (
            not isinstance(self.transport, str) or not self.transport
        ):
            raise ConfigurationError(
                f"transport must be a non-empty string or None, got {self.transport!r}"
            )
        if self.hosts is not None:
            hosts = tuple(str(h) for h in self.hosts)
            if not hosts:
                raise ConfigurationError("hosts must be a non-empty list or None")
            object.__setattr__(self, "hosts", hosts)

    def replace(self, **changes: Any) -> "ExecutionPolicy":
        """Field-level copy-and-update."""
        return replace(self, **changes)

    def backend_options(self) -> Dict[str, Any]:
        """The transport-level options this policy pins (for ``make_backend``).

        Only user-facing transport knobs belong here — ``make_backend`` fails
        loudly when a backend cannot consume them, so ``--transport ssh``
        with ``--backend process`` is an error rather than a silent no-op.
        """
        options: Dict[str, Any] = {}
        if self.transport is not None:
            options["transport"] = self.transport
        if self.hosts is not None:
            options["hosts"] = list(self.hosts)
        return options


def policy_from_mapping(
    data: Mapping[str, Any], *, where: str = "execution block"
) -> ExecutionPolicy:
    """Build a policy from a config file's ``"execution"`` block.

    Unknown keys and unregistered backend names fail loudly (with near-miss
    suggestions), matching the rest of the config validation story.
    """
    from repro.scenarios.registry import suggestion_hint
    from repro.exec.backends import BACKENDS

    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{where} must be a JSON object, got {data!r}")
    unknown = set(data) - _POLICY_KEYS
    if unknown:
        raise ConfigurationError(
            f"{where} has unknown keys {sorted(unknown)} (accepted: {sorted(_POLICY_KEYS)})"
        )
    for name in ("backend", "transport"):
        if name in data and not isinstance(data[name], str):
            raise ConfigurationError(f"{where}: {name!r} must be a string, got {data[name]!r}")
    backend = data.get("backend", "serial")
    if backend not in BACKENDS:
        hint = suggestion_hint(backend, BACKENDS.available())
        raise ConfigurationError(
            f"{where}: unknown execution backend {backend!r}{hint}; "
            f"available: {list(BACKENDS.available())}"
        )
    for flag in ("resume", "progress"):
        if flag in data and not isinstance(data[flag], bool):
            raise ConfigurationError(f"{where}: {flag!r} must be a boolean, got {data[flag]!r}")
    transport = data.get("transport")
    if transport is not None:
        from repro.exec.remote.transport import TRANSPORTS

        if transport not in TRANSPORTS:
            hint = suggestion_hint(transport, TRANSPORTS.available())
            raise ConfigurationError(
                f"{where}: unknown remote transport {transport!r}{hint}; "
                f"available: {list(TRANSPORTS.available())}"
            )
    hosts = data.get("hosts")
    if hosts is not None:
        if not isinstance(hosts, (list, tuple)) or not all(
            isinstance(h, str) and h for h in hosts
        ):
            raise ConfigurationError(
                f"{where}: 'hosts' must be a list of 'host' or 'host=slots' strings, "
                f"got {hosts!r}"
            )
        from repro.exec.remote.transport import parse_hosts

        parse_hosts(hosts)  # validates the host=slots syntax eagerly
    return ExecutionPolicy(
        backend=str(backend),
        chunk_size=data.get("chunk_size"),
        max_workers=data.get("max_workers"),
        resume=bool(data.get("resume", False)),
        progress=bool(data.get("progress", False)),
        transport=transport,
        hosts=tuple(hosts) if hosts else None,
    )


def default_workers(n_units: int) -> int:
    """Default worker count: one per CPU, capped by the batch size."""
    return max(1, min(n_units, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# the ambient policy
# ---------------------------------------------------------------------------

_CURRENT: ContextVar[Optional[ExecutionPolicy]] = ContextVar("repro_exec_policy", default=None)


def current_policy() -> Optional[ExecutionPolicy]:
    """The ambient policy installed by :func:`use_policy` (``None`` outside)."""
    return _CURRENT.get()


@contextmanager
def use_policy(policy: ExecutionPolicy) -> Iterator[ExecutionPolicy]:
    """Install ``policy`` as the ambient policy for the ``with`` region."""
    token = _CURRENT.set(policy)
    try:
        yield policy
    finally:
        _CURRENT.reset(token)


def resolve_policy(execution: Optional[Any] = None) -> ExecutionPolicy:
    """The policy a ``run_scenario``/``sweep`` call actually runs under.

    Precedence: an explicit ``execution`` argument (policy object, backend
    name, or config-block mapping); otherwise the ambient policy installed
    by :func:`use_policy`; otherwise ``serial``.
    """
    if execution is None:
        return current_policy() or ExecutionPolicy()
    if isinstance(execution, ExecutionPolicy):
        return execution
    if isinstance(execution, str):
        return ExecutionPolicy(backend=execution)
    if isinstance(execution, Mapping):
        return policy_from_mapping(execution)
    raise ConfigurationError(
        f"execution must be an ExecutionPolicy, backend name or mapping, got {execution!r}"
    )
