"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the *data* form of one experiment configuration:
which topology family to generate, which adversary animates it, which
algorithm runs on it, how nodes wake up, how long to simulate, which seeds to
replicate over, and which metrics to extract from the trace.  All components
are referenced by registry name (see :mod:`repro.scenarios.registry`), so a
spec is plain JSON-able data — it can live in a config file, be swept over,
or be shipped to a worker process.

Durations (``rounds``, wake-up spreads, warm-ups, …) may be given either as
plain integers or as small arithmetic expressions over the scenario's derived
quantities — ``"6*T1"``, ``"20*log2n + 10"`` — evaluated per scenario by
:func:`resolve_expression`.  This keeps "run for six windows" declarative
instead of forcing callers to precompute ``default_window(n)`` themselves.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError

__all__ = ["ComponentSpec", "ScenarioSpec", "component", "resolve_expression"]


# ---------------------------------------------------------------------------
# duration expressions
# ---------------------------------------------------------------------------

#: Characters allowed in a duration expression once variable names are removed.
_EXPR_SAFE = re.compile(r"^[\d\s+\-*/().]*$")


def resolve_expression(value: Union[int, float, str], **names: float) -> int:
    """Resolve an integer duration that may be an arithmetic expression.

    ``value`` is either an integral number (returned as ``int``) or a string
    expression over the supplied variables, e.g.
    ``resolve_expression("6*T1 + 2", T1=24)``, whose value is truncated.
    Only the variables passed as keyword arguments plus literals and
    ``+ - * / ( )`` are allowed.  A non-integral literal such as ``1.5`` is
    rejected rather than truncated.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"expected an integer or expression, got {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigurationError(f"expected an integral duration or expression, got {value!r}")
    if isinstance(value, (int, float)):
        return int(value)
    if not isinstance(value, str):
        raise ConfigurationError(f"expected an integer or expression, got {value!r}")
    stripped = value
    for name in sorted(names, key=len, reverse=True):
        stripped = stripped.replace(name, "")
    if not _EXPR_SAFE.match(stripped):
        raise ConfigurationError(
            f"illegal duration expression {value!r}; allowed variables: {sorted(names)}"
        )
    try:
        resolved = eval(value, {"__builtins__": {}}, dict(names))  # noqa: S307 - sanitised above
    except Exception as exc:
        raise ConfigurationError(f"cannot evaluate duration expression {value!r}: {exc}") from exc
    return int(resolved)


def standard_variables(*, n: int, T1: int, **extra: float) -> Dict[str, float]:
    """The variable set duration expressions are evaluated against."""
    return {"n": float(n), "T1": float(T1), "log2n": math.log2(max(n, 2)), **extra}


# ---------------------------------------------------------------------------
# component references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentSpec:
    """A registry name plus keyword parameters for its factory."""

    name: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(f"component name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "params", dict(self.params))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form: ``{"name": ..., "params": {...}}``."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def coerce(cls, value: Union["ComponentSpec", str, Mapping[str, Any]]) -> "ComponentSpec":
        """Accept a ComponentSpec, a bare name, or a ``{"name", "params"}`` mapping."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"name", "params"}
            if unknown:
                raise ConfigurationError(f"unexpected component keys {sorted(unknown)} in {value!r}")
            if "name" not in value:
                raise ConfigurationError(f"component spec {value!r} is missing its 'name'")
            return cls(value["name"], dict(value.get("params", {})))
        raise ConfigurationError(f"cannot interpret {value!r} as a component spec")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComponentSpec):
            return NotImplemented
        return self.name == other.name and dict(self.params) == dict(other.params)

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted((k, repr(v)) for k, v in self.params.items()))))


def component(name: str, **params: Any) -> ComponentSpec:
    """Ergonomic constructor: ``component("flip-churn", flip_prob=0.05)``."""
    return ComponentSpec(name, params)


def _coerce_seeds(seeds: Any) -> Tuple[int, ...]:
    """Validate ``seeds`` as a non-string sequence of integers (``bool`` excluded)."""
    if isinstance(seeds, (str, bytes)) or not isinstance(seeds, Sequence):
        raise ConfigurationError(f"seeds must be a list of integers, got {seeds!r}")
    for i, seed in enumerate(seeds):
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ConfigurationError(f"seeds[{i}] must be an integer, got {seed!r}")
    return tuple(int(seed) for seed in seeds)


def _coerce_optional(value: Any) -> Optional[ComponentSpec]:
    return None if value is None else ComponentSpec.coerce(value)


# ---------------------------------------------------------------------------
# the scenario specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-declarative experiment configuration.

    Parameters
    ----------
    n:
        Upper bound on the number of nodes (global knowledge).
    algorithm / adversary / topology / wakeup:
        Component references (registry name + params).  ``wakeup=None`` means
        every node is awake from round 1.
    rounds:
        Simulation length — an ``int`` or an expression over ``T1`` /
        ``log2n`` / ``n`` (e.g. ``"6*T1"``).
    seeds:
        The replication seeds; every seed is one independent run.
    metrics:
        Post-run extractors applied to the trace; their key/value results are
        merged (in order) into the per-seed row.
    probe:
        Optional per-round observer (for measurements that need to watch the
        simulation step by step); its ``finish()`` row is merged last.
    stop:
        Optional early-stop condition evaluated after every round.
    window:
        Explicit ``T1`` override; defaults to
        :func:`repro.core.windows.default_window` of ``n``.
    window_scale:
        Alternative to ``window``: scale the default ``Θ(log n)`` window via
        :func:`repro.core.windows.window_for` (e.g. ``0.5`` for stress tests,
        ``2.0`` for extra slack).  Mutually exclusive with ``window``.
    expose_state_to_adversary:
        Forwarded to the simulator (adaptive adversaries may inspect state).
    delivery:
        Optional delivery-path override forwarded to the simulator:
        ``"auto"`` (the default when ``None``), ``"full"``,
        ``"incremental"`` or ``"kernel"``.  ``"kernel"`` degrades to
        ``"incremental"`` when the algorithm has no array kernel or the
        adversary offers no :class:`~repro.kernel.plan.KernelPlan`.
    trace_retention:
        Optional trace memory knob forwarded to the simulator: ``"full"``
        (the default when ``None``) keeps every round's complete output
        vector; ``"stats"`` keeps only O(#changes) per-round updates on the
        array kernel path and reconstructs full vectors lazily — derived
        metrics are byte-identical, memory stays bounded at 10^5–10^6 nodes
        (see :class:`repro.runtime.trace.ExecutionTrace`).  Omitted from
        :meth:`to_dict` when ``None`` so existing store keys are unchanged.
    name:
        Free-form label copied into results.
    """

    n: int
    algorithm: ComponentSpec
    adversary: ComponentSpec = field(default_factory=lambda: ComponentSpec("static"))
    topology: ComponentSpec = field(default_factory=lambda: ComponentSpec("gnp_sparse"))
    rounds: Union[int, str] = "4*T1"
    seeds: Tuple[int, ...] = (0, 1, 2)
    wakeup: Optional[ComponentSpec] = None
    metrics: Tuple[ComponentSpec, ...] = ()
    probe: Optional[ComponentSpec] = None
    stop: Optional[ComponentSpec] = None
    window: Optional[int] = None
    window_scale: Optional[float] = None
    expose_state_to_adversary: bool = False
    delivery: Optional[str] = None
    trace_retention: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ConfigurationError(f"n must be a positive integer, got {self.n!r}")
        if not isinstance(self.name, str):
            raise ConfigurationError(f"name must be a string, got {self.name!r}")
        if not isinstance(self.expose_state_to_adversary, bool):
            raise ConfigurationError(
                "expose_state_to_adversary must be a boolean, "
                f"got {self.expose_state_to_adversary!r}"
            )
        object.__setattr__(self, "algorithm", ComponentSpec.coerce(self.algorithm))
        object.__setattr__(self, "adversary", ComponentSpec.coerce(self.adversary))
        object.__setattr__(self, "topology", ComponentSpec.coerce(self.topology))
        object.__setattr__(self, "wakeup", _coerce_optional(self.wakeup))
        object.__setattr__(self, "probe", _coerce_optional(self.probe))
        object.__setattr__(self, "stop", _coerce_optional(self.stop))
        metrics = self.metrics
        if isinstance(metrics, (str, Mapping)) or isinstance(metrics, ComponentSpec):
            metrics = (metrics,)
        object.__setattr__(self, "metrics", tuple(ComponentSpec.coerce(m) for m in metrics))
        seeds = _coerce_seeds(self.seeds)
        if not seeds:
            raise ConfigurationError("a scenario needs at least one seed")
        object.__setattr__(self, "seeds", seeds)
        if isinstance(self.rounds, bool) or not isinstance(self.rounds, (int, str)):
            raise ConfigurationError(f"rounds must be an int or expression, got {self.rounds!r}")
        if isinstance(self.rounds, int) and self.rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {self.rounds}")
        if self.window is not None and (
            isinstance(self.window, bool) or not isinstance(self.window, int) or self.window < 1
        ):
            raise ConfigurationError(f"window must be a positive integer, got {self.window!r}")
        if self.window_scale is not None:
            if isinstance(self.window_scale, bool) or not isinstance(
                self.window_scale, (int, float)
            ):
                raise ConfigurationError(
                    f"window_scale must be a number, got {self.window_scale!r}"
                )
            if self.window_scale <= 0:
                raise ConfigurationError(
                    f"window_scale must be > 0, got {self.window_scale!r}"
                )
            object.__setattr__(self, "window_scale", float(self.window_scale))
            if self.window is not None:
                raise ConfigurationError("pass either 'window' or 'window_scale', not both")
        # Kept in sync with repro.runtime.simulator._DELIVERY_MODES (specs
        # must stay importable without pulling in the runtime).
        if self.delivery is not None and self.delivery not in (
            "auto",
            "full",
            "incremental",
            "kernel",
        ):
            raise ConfigurationError(
                "delivery must be one of ('auto', 'full', 'incremental', 'kernel'), "
                f"got {self.delivery!r}"
            )
        # Kept in sync with repro.runtime.trace.RETENTION_MODES (same
        # importability constraint as the delivery modes above).
        if self.trace_retention is not None and self.trace_retention not in ("full", "stats"):
            raise ConfigurationError(
                "trace_retention must be one of ('full', 'stats'), "
                f"got {self.trace_retention!r}"
            )

    # -- labels & derived values -------------------------------------------------

    @property
    def label(self) -> str:
        """The display label of this scenario (name, or the algorithm's name)."""
        return self.name or self.algorithm.name

    def resolved_window(self) -> int:
        """The window ``T1`` this scenario runs with."""
        from repro.core.windows import default_window, window_for

        if self.window is not None:
            return self.window
        if self.window_scale is not None:
            return window_for(self.n, self.window_scale)
        return default_window(self.n)

    def resolved_rounds(self) -> int:
        """The concrete number of rounds (duration expressions evaluated)."""
        rounds = resolve_expression(
            self.rounds, **standard_variables(n=self.n, T1=self.resolved_window())
        )
        if rounds < 0:
            raise ConfigurationError(f"rounds expression {self.rounds!r} resolved to {rounds}")
        return rounds

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_dict` reconstructs exactly."""
        def comp(value: Optional[ComponentSpec]):
            return None if value is None else value.to_dict()

        data = {
            "n": self.n,
            "algorithm": comp(self.algorithm),
            "adversary": comp(self.adversary),
            "topology": comp(self.topology),
            "rounds": self.rounds,
            "seeds": list(self.seeds),
            "wakeup": comp(self.wakeup),
            "metrics": [m.to_dict() for m in self.metrics],
            "probe": comp(self.probe),
            "stop": comp(self.stop),
            "window": self.window,
            "window_scale": self.window_scale,
            "expose_state_to_adversary": self.expose_state_to_adversary,
            "delivery": self.delivery,
            "name": self.name,
        }
        # Omitted at its None default: the dict doubles as the result-store
        # content key, and a knob that cannot change any stored row must not
        # re-key (or drift-fail) every config committed before it existed.
        if self.trace_retention is not None:
            data["trace_retention"] = self.trace_retention
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict` (also accepts hand-written JSON configs)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown ScenarioSpec keys {sorted(unknown)}")
        if "n" not in data or "algorithm" not in data:
            raise ConfigurationError("a scenario spec needs at least 'n' and 'algorithm'")
        kwargs: Dict[str, Any] = dict(data)
        if "metrics" in kwargs:
            metrics = kwargs["metrics"]
            # A bare string would be read one character at a time.
            if isinstance(metrics, (str, bytes)) or not isinstance(metrics, Sequence):
                raise ConfigurationError(
                    f"metrics must be a list of metric components, got {metrics!r}"
                )
            kwargs["metrics"] = tuple(metrics)
        return cls(**kwargs)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """Serialise to JSON (``sort_keys=True`` for stable diffs)."""
        dumps_kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec from its JSON form."""
        return cls.from_dict(json.loads(text))

    # -- derivation --------------------------------------------------------------

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """Return a copy with dotted-path overrides applied.

        Paths address the :meth:`to_dict` structure: ``{"n": 64}``,
        ``{"adversary.params.flip_prob": 0.05}``, ``{"algorithm.name": "dmis"}``.
        This is the primitive :func:`repro.scenarios.executor.sweep` uses to
        expand one spec into a grid.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            parts = path.split(".")
            target: Any = data
            for part in parts[:-1]:
                if not isinstance(target, dict):
                    raise ConfigurationError(f"cannot descend into {path!r} at {part!r}")
                if target.get(part) is None:
                    target[part] = {}
                target = target[part]
            if not isinstance(target, dict):
                raise ConfigurationError(f"cannot apply override {path!r}")
            target[parts[-1]] = value
        return type(self).from_dict(data)

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """Field-level :func:`dataclasses.replace` convenience."""
        return replace(self, **changes)
