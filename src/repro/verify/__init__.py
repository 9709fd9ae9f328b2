"""Verification: the contract suite behind ``repro verify``.

* :mod:`repro.verify.contracts` — the observational-equivalence contracts
  and metamorphic properties.  ``delivery-equivalence`` is the one
  fast-vs-full gate: it runs the built-in cases and every committed scenario
  config on the incremental and kernel paths against the full path.
* :mod:`repro.verify.harness` — drives the contracts and shapes their
  verdicts for the results store.

Both modules load lazily on first attribute access, so importing
:mod:`repro.scenarios` never drags in the full harness.
"""

__all__ = [
    "CONTRACTS",
    "Verdict",
    "VerifyContext",
    "run_verify",
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
