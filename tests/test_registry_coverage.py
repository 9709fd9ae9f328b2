"""Every registered component is selected by something committed, and no
registered topology exposes a private parameter to configs."""

from pathlib import Path

import pytest

from repro.scenarios.registry import (
    ADVERSARIES,
    ALGORITHMS,
    METRICS,
    PROBES,
    STOP_CONDITIONS,
    TOPOLOGIES,
    WAKEUPS,
    accepted_parameters,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where a committed selector lives: configs, experiment functions, examples,
#: benchmark scripts and the repo benchmark.
SELECTOR_DIRS = ("configs", "src/repro/analysis/experiments", "examples", "perfbench")

#: Every registry a scenario selects a component from by name.
SELECTABLE = (TOPOLOGIES, ADVERSARIES, ALGORITHMS, WAKEUPS, STOP_CONDITIONS, METRICS, PROBES)


def _selector_text() -> str:
    paths = [
        path
        for directory in SELECTOR_DIRS
        for path in sorted((REPO_ROOT / directory).rglob("*"))
        if path.suffix in (".py", ".json")
    ]
    paths += sorted((REPO_ROOT / "benchmarks").glob("*.py"))
    return "\n".join(path.read_text(encoding="utf-8") for path in paths)


def _built_in(registry):
    """The names the library registers (tests may register throwaway ones)."""
    return [name for name in registry if registry.get(name).__module__.startswith("repro.")]


def test_every_registered_component_is_selected_somewhere():
    text = _selector_text()
    unused = [
        f"{registry.kind} {name!r}"
        for registry in SELECTABLE
        for name in _built_in(registry)
        if f'"{name}"' not in text and f"'{name}'" not in text
    ]
    assert not unused, (
        f"no committed config, experiment, example or benchmark selects {unused}: "
        "add a config that runs each, or delete it"
    )


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_no_topology_accepts_a_private_parameter(name):
    accepted = accepted_parameters(TOPOLOGIES.get(name)) or frozenset()
    assert not [key for key in accepted if key.startswith("_")]

