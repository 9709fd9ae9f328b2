"""The :class:`VerificationPolicy`: *which* delivery paths are verified in-run.

The scenario executor can re-run any seed that executed on a fast delivery
path (``incremental`` / ``kernel``) on the authoritative full path and demand
byte-identical traces (see
:func:`repro.scenarios.executor.run_scenario_seed`).  This module holds that
switch as a first-class policy object, mirroring how
:class:`repro.exec.policy.ExecutionPolicy` holds the execution knobs.

Policies come from two places, in increasing precedence:

1. the ``REPRO_VERIFY`` environment variable (a comma-separated subset of
   ``incremental,kernel``, or ``none``) — this is also the transport that
   carries an installed policy into pooled/spawned worker processes,
2. an ambient policy installed with :func:`use_verification` — which is how
   the CLI's ``--verify`` flag and a config's ``"verification"`` block reach
   every seed of a run.

:func:`active_verification` resolves that precedence; the executor calls it
once per seed, in whichever process the seed runs.  The retired per-path
variables ``REPRO_VERIFY_INCREMENTAL`` / ``REPRO_VERIFY_KERNEL`` raise a
:class:`~repro.errors.ConfigurationError` naming their replacement: ignoring
a stale one would silently switch the gate off.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Any, Iterator, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

__all__ = [
    "VERIFY_ENV",
    "VerificationPolicy",
    "active_verification",
    "current_verification",
    "parse_verify_spec",
    "use_verification",
    "verification_from_mapping",
]

#: Canonical environment variable: a comma-separated subset of the
#: verifiable paths (``"incremental,kernel"``), or ``"none"``.
VERIFY_ENV = "REPRO_VERIFY"

#: Retired per-path variables, by the path each one switched on.
_RETIRED_ENV = {"REPRO_VERIFY_INCREMENTAL": "incremental", "REPRO_VERIFY_KERNEL": "kernel"}

#: The delivery paths an in-run equivalence gate exists for (the full path
#: is the reference, so there is nothing to verify it against).
VERIFIABLE_PATHS: Tuple[str, ...] = ("incremental", "kernel")

#: Keys a ``"verification"`` config block may contain.
_POLICY_KEYS = frozenset(VERIFIABLE_PATHS)

#: Tokens ``--verify`` / ``REPRO_VERIFY`` accept.
_SPEC_TOKENS: Tuple[str, ...] = VERIFIABLE_PATHS + ("none",)


@dataclass(frozen=True)
class VerificationPolicy:
    """Which delivery paths are re-verified against the full path in-run.

    Parameters
    ----------
    incremental:
        Re-run every seed that executed on the incremental delivery path on
        the full path and demand byte-identical traces (catches an algorithm
        whose declared ``"pure"`` message-stability contract is wrong).
    kernel:
        The same gate for the array-kernel path (catches a vectorised kernel
        drifting from its reference algorithm).
    """

    incremental: bool = False
    kernel: bool = False

    def __post_init__(self) -> None:
        for field_name in VERIFIABLE_PATHS:
            value = getattr(self, field_name)
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"verification flag {field_name!r} must be a boolean, got {value!r}"
                )

    @property
    def enabled(self) -> bool:
        """Whether any path is verified at all."""
        return self.incremental or self.kernel

    def modes(self) -> Tuple[str, ...]:
        """The verified paths, in canonical order (``()`` when disabled)."""
        return tuple(path for path in VERIFIABLE_PATHS if getattr(self, path))

    def wants(self, path: str) -> bool:
        """Whether a seed that ran on delivery ``path`` must be verified."""
        return path in VERIFIABLE_PATHS and bool(getattr(self, path))

    def to_spec(self) -> str:
        """The ``--verify`` / ``REPRO_VERIFY`` spelling of this policy."""
        return ",".join(self.modes()) or "none"

    def replace(self, **changes: Any) -> "VerificationPolicy":
        """Field-level copy-and-update."""
        return replace(self, **changes)


def _suggestion(name: object, candidates) -> str:
    from repro.scenarios.registry import suggestion_hint

    return suggestion_hint(name, candidates)


def parse_verify_spec(value: str, *, where: str = "--verify") -> VerificationPolicy:
    """Parse a ``--verify`` flag / ``REPRO_VERIFY`` value into a policy.

    Accepts a comma-separated subset of ``incremental,kernel`` or the single
    token ``none`` (an explicit "verify nothing").  Unknown tokens fail
    loudly with near-miss suggestions, matching the config-validation story.
    """
    if not isinstance(value, str):
        raise ConfigurationError(f"{where} must be a string, got {value!r}")
    tokens = [token.strip() for token in value.split(",") if token.strip()]
    if not tokens:
        raise ConfigurationError(
            f"{where} needs at least one of {', '.join(_SPEC_TOKENS)}; got {value!r}"
        )
    for token in tokens:
        if token not in _SPEC_TOKENS:
            hint = _suggestion(token, _SPEC_TOKENS)
            raise ConfigurationError(
                f"{where}: unknown verification mode {token!r}{hint}; "
                f"accepted: {', '.join(_SPEC_TOKENS)}"
            )
    if "none" in tokens:
        if len(tokens) > 1:
            raise ConfigurationError(
                f"{where}: 'none' cannot be combined with other modes, got {value!r}"
            )
        return VerificationPolicy()
    return VerificationPolicy(**{path: path in tokens for path in VERIFIABLE_PATHS})


def verification_from_mapping(
    data: Mapping[str, Any], *, where: str = "'verification' block"
) -> VerificationPolicy:
    """Build a policy from a config file's ``"verification"`` block.

    The block carries one boolean per verifiable path, e.g.
    ``{"kernel": true}``.  Unknown keys fail loudly with "did you mean …?"
    near-miss suggestions, exactly like the ``"execution"`` block.
    """
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"{where} must be a JSON object, got {data!r}")
    unknown = set(data) - _POLICY_KEYS
    if unknown:
        hints = "".join(_suggestion(key, _POLICY_KEYS) for key in sorted(unknown))
        raise ConfigurationError(
            f"{where} has unknown keys {sorted(unknown)}{hints} "
            f"(accepted: {sorted(_POLICY_KEYS)})"
        )
    for key, value in data.items():
        if not isinstance(value, bool):
            raise ConfigurationError(f"{where}: {key!r} must be a boolean, got {value!r}")
    return VerificationPolicy(**{path: bool(data.get(path, False)) for path in VERIFIABLE_PATHS})


# ---------------------------------------------------------------------------
# the ambient policy
# ---------------------------------------------------------------------------

_CURRENT: ContextVar[Optional[VerificationPolicy]] = ContextVar(
    "repro_verification_policy", default=None
)


def current_verification() -> Optional[VerificationPolicy]:
    """The ambient policy installed by :func:`use_verification` (``None`` outside)."""
    return _CURRENT.get()


@contextmanager
def use_verification(policy: VerificationPolicy) -> Iterator[VerificationPolicy]:
    """Install ``policy`` as the ambient verification policy for the block.

    Besides the in-process context variable, the canonical ``REPRO_VERIFY``
    environment variable is set to the policy's spec for the duration of the
    block: worker processes of the pooled/spawned execution backends inherit
    the environment, so a ``--verify`` flag reaches every seed no matter
    which process it runs in (the same transport ``REPRO_DELIVERY`` uses).
    """
    token = _CURRENT.set(policy)
    previous = os.environ.get(VERIFY_ENV)
    os.environ[VERIFY_ENV] = policy.to_spec()
    try:
        yield policy
    finally:
        _CURRENT.reset(token)
        if previous is None:
            os.environ.pop(VERIFY_ENV, None)
        else:
            os.environ[VERIFY_ENV] = previous


def _reject_retired_env() -> None:
    """Fail on a leftover ``REPRO_VERIFY_INCREMENTAL``/``REPRO_VERIFY_KERNEL``.

    Only a value that used to switch the gate on counts (``""`` and ``"0"``
    never did), so the message can name the exact replacement.
    """
    stale = [env for env in _RETIRED_ENV if os.environ.get(env, "").strip() not in ("", "0")]
    if stale:
        spec = ",".join(_RETIRED_ENV[env] for env in stale)
        raise ConfigurationError(
            f"{' and '.join(stale)} {'is' if len(stale) == 1 else 'are'} no longer "
            f"supported; use {VERIFY_ENV}={spec} (or --verify {spec}, or a config's "
            f"\"verification\" block) instead"
        )


def active_verification() -> VerificationPolicy:
    """The policy in force for the current seed execution.

    Precedence, highest first: the ambient :func:`use_verification` policy,
    then the ``REPRO_VERIFY`` environment variable.  A retired per-path
    variable raises :class:`~repro.errors.ConfigurationError` in either case.
    """
    _reject_retired_env()
    ambient = current_verification()
    if ambient is not None:
        return ambient
    raw = os.environ.get(VERIFY_ENV, "").strip()
    if raw:
        return parse_verify_spec(raw, where=VERIFY_ENV)
    return VerificationPolicy()
