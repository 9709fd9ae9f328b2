"""Verification: the :class:`VerificationPolicy` API and the contract suite.

Two layers live here:

* :mod:`repro.verify.policy` — *in-run* verification: which delivery paths
  every seed execution re-checks against the authoritative full path
  (``--verify incremental,kernel``, the ``"verification"`` config block, the
  ``REPRO_VERIFY`` environment variable).
* :mod:`repro.verify.contracts` / :mod:`repro.verify.harness` — *offline*
  validation: the observational-equivalence contracts and metamorphic
  properties behind ``repro verify``.

The policy symbols are imported eagerly (the scenario executor needs them on
its hot path); the contract suite loads lazily on first attribute access so
importing :mod:`repro.scenarios` never drags in the full harness.
"""

from repro.verify.policy import (
    VERIFY_ENV,
    VerificationPolicy,
    active_verification,
    current_verification,
    parse_verify_spec,
    use_verification,
    verification_from_mapping,
)

__all__ = [
    "CONTRACTS",
    "VERIFY_ENV",
    "Verdict",
    "VerificationPolicy",
    "VerifyContext",
    "active_verification",
    "current_verification",
    "parse_verify_spec",
    "run_verify",
    "use_verification",
    "verification_from_mapping",
    "verify_store_target",
]

_LAZY = {
    "CONTRACTS": "repro.verify.contracts",
    "Verdict": "repro.verify.contracts",
    "VerifyContext": "repro.verify.contracts",
    "run_verify": "repro.verify.harness",
    "verify_store_target": "repro.verify.harness",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
