"""Declarative scenario API: registries, specs, and the batch executor.

This package turns experiment configuration into *data*.  Instead of
hand-wiring topology + adversary + wake-up + algorithm inside closures, a
scenario is a :class:`ScenarioSpec` whose components are referenced by
registry name, and the executor handles seed replication, sweeps and
multi-core fan-out:

>>> from repro.scenarios import ScenarioSpec, component, run_scenario, sweep
>>> spec = ScenarioSpec(
...     n=64,
...     topology="gnp_sparse",
...     adversary=component("flip-churn", flip_prob=0.01),
...     algorithm="dynamic-coloring",
...     rounds="4*T1",
...     seeds=(0, 1, 2),
...     metrics=(component("validity", problem="coloring"),),
... )
>>> result = run_scenario(spec)                      # serial
>>> result = run_scenario(spec, execution="process")  # fan seeds out over cores
>>> grid = sweep(spec, over={"adversary.params.flip_prob": [0.001, 0.1]})
>>> spec == ScenarioSpec.from_json(spec.to_json())   # specs are plain data
True

Discovery is one call — :func:`available` lists every registered component::

    >>> sorted(available())
    ['adversaries', 'algorithms', 'metrics', 'probes', 'stop_conditions', 'topologies', 'wakeups']

New components register with a decorator::

    from repro.scenarios import ADVERSARIES

    @ADVERSARIES.register("meteor-shower")
    def _build(ctx, *, strikes_per_round=3):
        ...
"""

from repro.scenarios.registry import (
    ADVERSARIES,
    ALGORITHMS,
    METRICS,
    PROBES,
    REGISTRIES,
    STOP_CONDITIONS,
    TOPOLOGIES,
    WAKEUPS,
    Registry,
    available,
)
from repro.scenarios.spec import ComponentSpec, ScenarioSpec, component, resolve_expression
from repro.scenarios.executor import (
    ScenarioContext,
    ScenarioResult,
    run_scenario,
    run_scenario_seed,
    sweep,
)
from repro.scenarios.store import ResultsStore, StoreEntry, canonical_json, content_key
from repro.scenarios.configs import load_config, validate_config, validate_spec

# Populate the registries with every built-in component (import side effects).
from repro.scenarios import components as _components  # noqa: E402,F401

__all__ = [
    "Registry",
    "REGISTRIES",
    "TOPOLOGIES",
    "ADVERSARIES",
    "ALGORITHMS",
    "WAKEUPS",
    "METRICS",
    "PROBES",
    "STOP_CONDITIONS",
    "available",
    "ComponentSpec",
    "ScenarioSpec",
    "component",
    "resolve_expression",
    "ScenarioContext",
    "ScenarioResult",
    "run_scenario",
    "run_scenario_seed",
    "sweep",
    "ResultsStore",
    "StoreEntry",
    "canonical_json",
    "content_key",
    "load_config",
    "validate_config",
    "validate_spec",
]
