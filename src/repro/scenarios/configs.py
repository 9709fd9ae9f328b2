"""Committed config files: loading and validation for the ``repro`` pipeline.

Three config kinds live under ``configs/`` (see ``configs/README.md``):

``scenario``
    One :class:`~repro.scenarios.spec.ScenarioSpec` — ``{"kind": "scenario",
    "spec": {…}}``.  A bare spec dict (the output of ``ScenarioSpec.to_json``)
    is also accepted.
``sweep``
    A base spec plus a grid of dotted-path overrides — ``{"kind": "sweep",
    "spec": {…}, "over": {"n": [64, 128], …}}``.
``experiment``
    A catalogued E1–E13 experiment plus its parameter sets — ``{"kind":
    "experiment", "experiment": "e01", "title": …, "params": {…},
    "smoke_params": {…}}``.

:func:`validate_config` checks a config *without running it*: every component
name must exist in its registry (unknown names produce a message listing
near-miss suggestions from ``available()`` instead of a raw lookup error deep
inside the registry), sweep grids must expand to constructible specs, and
experiment parameters must match the experiment function's signature.

A config carries no tracing switch: tracing is per run (``--trace PATH`` or
``REPRO_TRACE``), and a retired ``"telemetry"`` block fails to load with a
:class:`~repro.errors.ConfigurationError` that says so.
"""

from __future__ import annotations

import json
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError
from repro.scenarios.registry import (
    ADVERSARIES,
    ALGORITHMS,
    METRICS,
    PROBES,
    STOP_CONDITIONS,
    TOPOLOGIES,
    WAKEUPS,
    Registry,
    suggestion_hint,
)
from repro.scenarios.spec import ComponentSpec, ScenarioSpec

__all__ = [
    "Config",
    "ExperimentConfig",
    "ScenarioConfig",
    "SweepConfig",
    "check_spec_params",
    "load_config",
    "load_experiment_configs",
    "validate_config",
    "validate_spec",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """A committed single-scenario config."""

    spec: ScenarioSpec
    path: Optional[Path] = None
    execution: Optional[Mapping[str, Any]] = None

    kind = "scenario"

    @property
    def label(self) -> str:
        return self.spec.label


@dataclass(frozen=True)
class SweepConfig:
    """A committed spec-plus-grid config."""

    spec: ScenarioSpec
    over: Mapping[str, Sequence[Any]]
    path: Optional[Path] = None
    execution: Optional[Mapping[str, Any]] = None

    kind = "sweep"

    @property
    def label(self) -> str:
        return self.spec.label


@dataclass(frozen=True)
class ExperimentConfig:
    """A committed E1–E13 experiment config with its two parameter scales."""

    experiment: str
    title: str
    params: Mapping[str, Any] = field(default_factory=dict)
    smoke_params: Optional[Mapping[str, Any]] = None
    columns: Optional[Tuple[str, ...]] = None
    path: Optional[Path] = None
    execution: Optional[Mapping[str, Any]] = None

    kind = "experiment"

    @property
    def label(self) -> str:
        return self.experiment

    def params_for(self, scale: str) -> Dict[str, Any]:
        """The parameter set for one scale (smoke falls back to full)."""
        if scale == "full":
            return dict(self.params)
        if scale == "smoke":
            return dict(self.smoke_params if self.smoke_params is not None else self.params)
        raise ConfigurationError(f"unknown experiment scale {scale!r} (full/smoke)")


Config = Union[ScenarioConfig, SweepConfig, ExperimentConfig]


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _load_json(path: Path) -> Mapping[str, Any]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ConfigurationError(f"config {path} must be a JSON object, got {type(data).__name__}")
    return data


def load_config(path: Union[str, Path]) -> Config:
    """Load one config file, dispatching on its ``"kind"``."""
    path = Path(path)
    data = _load_json(path)
    kind = data.get("kind")
    if kind is None and "n" in data and "algorithm" in data:
        kind = "scenario"  # a bare ScenarioSpec dict, e.g. spec.to_json() output
        data = {"kind": "scenario", "spec": dict(data)}
    execution = data.get("execution")
    if execution is not None and not isinstance(execution, Mapping):
        raise ConfigurationError(
            f"config {path}: 'execution' must be a JSON object, got {execution!r}"
        )
    execution = None if execution is None else dict(execution)
    if "telemetry" in data:
        raise ConfigurationError(
            f"config {path}: the 'telemetry' block is retired; trace a run with "
            "'--trace PATH' or the REPRO_TRACE=PATH environment variable"
        )
    if kind == "scenario":
        if "spec" not in data:
            raise ConfigurationError(f"scenario config {path} is missing its 'spec'")
        _reject_unknown(path, data, {"kind", "spec", "execution"})
        return ScenarioConfig(
            spec=_load_spec(path, data["spec"]),
            path=path,
            execution=execution,
        )
    if kind == "sweep":
        for required in ("spec", "over"):
            if required not in data:
                raise ConfigurationError(f"sweep config {path} is missing its {required!r}")
        _reject_unknown(path, data, {"kind", "spec", "over", "execution"})
        over = data["over"]
        if not isinstance(over, Mapping) or not over:
            raise ConfigurationError(f"sweep config {path}: 'over' must be a non-empty object")
        for axis, values in over.items():
            # A bare scalar would TypeError below and a string would sweep its
            # characters — both are config mistakes, not grids.
            if isinstance(values, (str, bytes)) or not isinstance(values, SequenceABC):
                raise ConfigurationError(
                    f"sweep config {path}: axis {axis!r} must be a JSON list of values, "
                    f"got {values!r}"
                )
        return SweepConfig(
            spec=_load_spec(path, data["spec"]),
            over={str(k): list(v) for k, v in over.items()},
            path=path,
            execution=execution,
        )
    if kind == "experiment":
        for required in ("experiment", "title"):
            if required not in data:
                raise ConfigurationError(f"experiment config {path} is missing its {required!r}")
        _reject_unknown(
            path,
            data,
            {
                "kind",
                "experiment",
                "title",
                "params",
                "smoke_params",
                "columns",
                "execution",
            },
        )
        columns = data.get("columns")
        return ExperimentConfig(
            experiment=str(data["experiment"]),
            title=str(data["title"]),
            params=dict(data.get("params", {})),
            smoke_params=None if data.get("smoke_params") is None else dict(data["smoke_params"]),
            columns=None if columns is None else tuple(columns),
            path=path,
            execution=execution,
        )
    raise ConfigurationError(
        f"config {path} has unknown kind {kind!r} (expected scenario, sweep or experiment)"
    )


def _load_spec(path: Path, data: Any) -> ScenarioSpec:
    """Build a config's spec, rejecting component parameters nothing accepts."""
    spec = ScenarioSpec.from_dict(data)
    check_spec_params(spec, f"config {path}: ")
    return spec


def _reject_unknown(path: Path, data: Mapping[str, Any], allowed: set) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(f"config {path} has unknown keys {sorted(unknown)}")


def load_experiment_configs(directory: Union[str, Path]) -> Dict[str, ExperimentConfig]:
    """Load every experiment config under ``directory``, keyed by experiment id."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ConfigurationError(f"experiment config directory {directory} does not exist")
    configs: Dict[str, ExperimentConfig] = {}
    for path in sorted(directory.glob("*.json")):
        config = load_config(path)
        if not isinstance(config, ExperimentConfig):
            raise ConfigurationError(f"{path} is a {config.kind} config, expected an experiment")
        if config.experiment in configs:
            raise ConfigurationError(
                f"duplicate experiment id {config.experiment!r} "
                f"({configs[config.experiment].path} and {path})"
            )
        configs[config.experiment] = config
    return configs


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _check_component(
    registry: Registry,
    family: str,
    ref: Optional[ComponentSpec],
    role: str,
    problems: List[str],
) -> None:
    if ref is None or ref.name in registry:
        return
    hint = suggestion_hint(ref.name, registry.available())
    problems.append(
        f"unknown {registry.kind} {ref.name!r} (as {role}){hint} "
        f"— available({family!r}) lists the registered names"
    )


def validate_spec(spec: ScenarioSpec) -> List[str]:
    """Check every component reference of ``spec`` against its registry.

    Returns a list of problem messages ([] when the spec is well-formed);
    unknown names come with near-miss suggestions so a typo like
    ``"dynamic-colorng"`` points at ``"dynamic-coloring"`` instead of failing
    with a lookup error deep inside the executor.
    """
    problems: List[str] = []
    _check_component(TOPOLOGIES, "topologies", spec.topology, "topology", problems)
    _check_component(ADVERSARIES, "adversaries", spec.adversary, "adversary", problems)
    _check_component(ALGORITHMS, "algorithms", spec.algorithm, "algorithm", problems)
    _check_component(WAKEUPS, "wakeups", spec.wakeup, "wakeup", problems)
    for index, metric in enumerate(spec.metrics):
        _check_component(METRICS, "metrics", metric, f"metrics[{index}]", problems)
    _check_component(PROBES, "probes", spec.probe, "probe", problems)
    _check_component(STOP_CONDITIONS, "stop_conditions", spec.stop, "stop condition", problems)
    return problems


def check_spec_params(spec: ScenarioSpec, context: str = "") -> None:
    """Raise :class:`ConfigurationError` if a component of ``spec`` gets a bad parameter.

    The one parameter gate for specs: :func:`load_config` runs it on every
    config and :func:`~repro.scenarios.executor.run_scenario_seed` on every
    spec built in Python, before any factory is called.  Each problem names
    its field as ``spec.<slot>.params.<key>`` (see
    :meth:`Registry.param_problems`), prefixed by ``context``; unknown
    component names are left to :func:`validate_spec` and the registry lookup.
    """
    slots = [
        ("topology", TOPOLOGIES, spec.topology),
        ("adversary", ADVERSARIES, spec.adversary),
        ("algorithm", ALGORITHMS, spec.algorithm),
        ("wakeup", WAKEUPS, spec.wakeup),
        ("probe", PROBES, spec.probe),
        ("stop", STOP_CONDITIONS, spec.stop),
    ]
    slots.extend((f"metrics[{i}]", METRICS, metric) for i, metric in enumerate(spec.metrics))
    problems: List[str] = []
    for slot, registry, ref in slots:
        if ref is not None and ref.name in registry:
            problems.extend(registry.param_problems(ref.name, ref.params, f"spec.{slot}.params"))
    if problems:
        raise ConfigurationError(context + "; ".join(problems))


def _validate_execution(config: Config, where: str) -> List[str]:
    """Problems with a config's optional ``"execution"`` block."""
    if config.execution is None:
        return []
    from repro.exec.policy import policy_from_mapping

    try:
        policy_from_mapping(config.execution, where="'execution' block")
    except ConfigurationError as exc:
        return [f"{where}{exc}"]
    return []


def validate_config(config: Config) -> List[str]:
    """Validate one loaded config; returns problem messages ([] when clean)."""
    where = f"{config.path}: " if config.path is not None else ""
    if isinstance(config, ScenarioConfig):
        problems = [where + problem for problem in validate_spec(config.spec)]
        problems.extend(_validate_execution(config, where))
        return problems
    if isinstance(config, SweepConfig):
        problems = [where + problem for problem in validate_spec(config.spec)]
        problems.extend(_validate_execution(config, where))
        for axis, values in config.over.items():
            if not values:
                problems.append(f"{where}sweep axis {axis!r} has no values")
                continue
            try:
                point = config.spec.with_overrides({axis: values[0]})
            except ConfigurationError as exc:
                problems.append(f"{where}sweep axis {axis!r} is not applicable: {exc}")
                continue
            for problem in validate_spec(point):
                message = f"{where}sweep axis {axis!r}: {problem}"
                if message not in problems:
                    problems.append(message)
        return problems
    if isinstance(config, ExperimentConfig):
        from repro.analysis.experiments.catalog import EXPERIMENTS, experiment_defaults

        problems = _validate_execution(config, where)
        if config.experiment not in EXPERIMENTS:
            hint = suggestion_hint(config.experiment, EXPERIMENTS)
            problems.append(
                f"{where}unknown experiment {config.experiment!r}{hint} "
                f"(available: {', '.join(sorted(EXPERIMENTS))})"
            )
            return problems
        known = experiment_defaults(config.experiment)
        for scale in ("full", "smoke"):
            for name in config.params_for(scale):
                if name not in known:
                    hint = suggestion_hint(name, known)
                    message = (
                        f"{where}experiment {config.experiment!r} has no parameter "
                        f"{name!r}{hint} (accepted: {', '.join(sorted(known))})"
                    )
                    if message not in problems:
                        problems.append(message)
        return problems
    raise ConfigurationError(f"cannot validate {config!r}")
