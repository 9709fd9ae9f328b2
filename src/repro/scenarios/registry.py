"""String-keyed component registries for the declarative scenario API.

A :class:`Registry` maps short stable names ("flip-churn", "dynamic-coloring",
"gnp_sparse", …) to component *factories*.  Scenario specifications refer to
components exclusively by these names, which is what makes a
:class:`~repro.scenarios.spec.ScenarioSpec` pure data: it survives JSON
round-trips, crosses process boundaries unharmed (the parallel executor
rebuilds every component inside the worker), and new components become
available to every experiment the moment they are registered.

Seven registries cover the moving parts of a simulation::

    TOPOLOGIES       (n, rng, **params)        -> Topology
    ADVERSARIES      (ctx, **params)           -> Adversary
    ALGORITHMS       (ctx, **params)           -> DistributedAlgorithm
    WAKEUPS          (ctx, **params)           -> WakeupSchedule
    METRICS          (ctx, **params)           -> Dict[str, float]   (post-run)
    PROBES           (ctx, **params)           -> probe object        (per-round)
    STOP_CONDITIONS  (ctx, **params)           -> (trace) -> bool

where ``ctx`` is the per-seed :class:`~repro.scenarios.executor.ScenarioContext`.

Registering a new component is one decorator::

    from repro.scenarios import ADVERSARIES

    @ADVERSARIES.register("my-burst-storm")
    def _build(ctx, *, burst_prob=0.1, drop_fraction=0.5):
        ...

The built-in components are registered in
:mod:`repro.scenarios.components`; :func:`available` lists everything.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Tuple, TypeVar

from repro.errors import RegistryError

__all__ = [
    "Registry",
    "accepted_parameters",
    "suggestion_hint",
    "TOPOLOGIES",
    "ADVERSARIES",
    "ALGORITHMS",
    "WAKEUPS",
    "METRICS",
    "PROBES",
    "STOP_CONDITIONS",
    "REGISTRIES",
    "available",
]

T = TypeVar("T")


def suggestion_hint(name: object, candidates) -> str:
    """A ``"; did you mean …?"`` suffix for unknown-name errors ("" if no match).

    The single source of truth for near-miss suggestions: registry lookups,
    config validation and the experiment catalog all build their messages
    through this helper.
    """
    suggestions = difflib.get_close_matches(str(name), list(candidates), n=3, cutoff=0.4)
    return f"; did you mean {', '.join(suggestions)}?" if suggestions else ""


def accepted_parameters(factory: Callable) -> Optional[FrozenSet[str]]:
    """Keyword parameters a component factory accepts (``None`` = unverifiable).

    The leading context arguments (``ctx`` / ``n, rng``) are positional by
    convention; a spec's ``params`` arrive as keywords, so the accepted set is
    every keyword-only parameter plus positional-or-keyword parameters with
    defaults.  A ``**kwargs`` factory can absorb anything — unverifiable.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):
        return None
    accepted = set()
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return None
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY:
            accepted.add(parameter.name)
        elif (
            parameter.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            and parameter.default is not inspect.Parameter.empty
        ):
            accepted.add(parameter.name)
    return frozenset(accepted)


def _required_parameters(factory: Callable) -> FrozenSet[str]:
    """Keyword-only parameters of ``factory`` without a default."""
    try:
        parameters = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):
        return frozenset()
    keyword_only = [p for p in parameters if p.kind is inspect.Parameter.KEYWORD_ONLY]
    return frozenset(p.name for p in keyword_only if p.default is inspect.Parameter.empty)


class Registry:
    """A named mapping from string keys to component factories.

    Keys are case-sensitive, must be non-empty strings, and may be registered
    only once (re-registering the same key raises :class:`RegistryError`
    unless ``overwrite=True`` — useful in tests and notebooks).
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._entries: Dict[str, Callable] = {}
        self._docs: Dict[str, str] = {}
        self._checks: Dict[str, Callable[[Mapping[str, Any], str], List[str]]] = {}
        #: ``(accepted, required)`` keyword sets per name, inspected on first
        #: use: :meth:`param_problems` runs once per work unit.
        self._signatures: Dict[str, Tuple[Optional[FrozenSet[str]], FrozenSet[str]]] = {}

    @property
    def kind(self) -> str:
        """Human-readable name of the component family (e.g. ``"adversary"``)."""
        return self._kind

    def register(
        self,
        name: str,
        factory: Optional[Callable] = None,
        *,
        overwrite: bool = False,
        doc: Optional[str] = None,
        check: Optional[Callable[[Mapping[str, Any], str], List[str]]] = None,
    ):
        """Register ``factory`` under ``name``.

        Usable as a decorator (``@REGISTRY.register("name")``) or called
        directly (``REGISTRY.register("name", factory)``); returns the factory
        either way.  ``doc`` overrides the component description surfaced by
        :meth:`describe` / ``available(docs=True)``; by default the first line
        of the factory's docstring is used.  ``check(params, where)`` returns
        problems with parameter *values* that the factory's signature cannot
        express (see :meth:`param_problems`).
        """
        if not isinstance(name, str) or not name:
            raise RegistryError(f"{self._kind} registry keys must be non-empty strings, got {name!r}")

        def decorate(target: Callable) -> Callable:
            if target is None or not callable(target):
                raise RegistryError(
                    f"{self._kind} {name!r} must be registered with a callable factory, got {target!r}"
                )
            if name in self._entries and not overwrite:
                raise RegistryError(
                    f"{self._kind} {name!r} is already registered; pass overwrite=True to replace it"
                )
            self._entries[name] = target
            self._checks.pop(name, None)
            self._signatures.pop(name, None)
            if check is not None:
                self._checks[name] = check
            if doc is not None:
                self._docs[name] = doc.strip()
            else:
                docstring = getattr(target, "__doc__", None) or ""
                self._docs[name] = docstring.strip().splitlines()[0] if docstring.strip() else ""
            return target

        if factory is None:
            return decorate
        return decorate(factory)

    def unregister(self, name: str) -> None:
        """Remove ``name`` (no-op if absent); mainly for test isolation."""
        self._entries.pop(name, None)
        self._docs.pop(name, None)
        self._checks.pop(name, None)
        self._signatures.pop(name, None)

    def param_problems(self, name: str, params: Mapping[str, Any], where: str) -> List[str]:
        """Problems with ``params`` for component ``name``, each naming ``where.<key>``.

        Flags keys the factory does not accept, keyword-only parameters it
        requires but ``params`` lacks, and whatever the ``check`` given to
        :meth:`register` reports.  Run before the factory is called, so a bad
        parameter is a message rather than a ``TypeError`` deep inside it.
        """
        signature = self._signatures.get(name)
        if signature is None:
            factory = self.get(name)
            signature = (accepted_parameters(factory), _required_parameters(factory))
            self._signatures[name] = signature
        accepted, required = signature
        problems: List[str] = []
        if accepted is not None:
            for key in sorted(set(params) - accepted):
                problems.append(
                    f"{where}.{key}: {self._kind} {name!r} accepts no parameter {key!r}"
                    f"{suggestion_hint(key, accepted)} (accepted: {sorted(accepted) or 'none'})"
                )
        for key in sorted(required - set(params)):
            problems.append(f"{where}.{key}: {self._kind} {name!r} requires this parameter")
        check = self._checks.get(name)
        if check is not None and not problems:
            problems.extend(check(params, where))
        return problems

    def set_doc(self, name: str, doc: str) -> None:
        """Replace the one-line description of an already-registered component.

        Used by :mod:`repro.scenarios.components` to enrich docs with
        metadata known only after registration (e.g. an algorithm's declared
        delivery contract).
        """
        if name not in self._entries:
            raise RegistryError(
                f"unknown {self._kind} {name!r}{self._hint(name)}; "
                f"available: {list(self.available())}"
            )
        self._docs[name] = doc.strip()

    def get(self, name: str) -> Callable:
        """Look up the factory registered under ``name``.

        Unknown names raise :class:`RegistryError` with near-miss suggestions
        (``"did you mean …?"``) alongside the full list of registered names.
        """
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self._kind} {name!r}{self._hint(name)}; "
                f"available: {list(self.available())}"
            ) from None

    def _hint(self, name: str) -> str:
        return suggestion_hint(name, self.available())

    def available(self) -> Tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._entries))

    def doc(self, name: str) -> str:
        """The one-line description of component ``name`` ("" if undocumented)."""
        if name not in self._entries:
            raise RegistryError(
                f"unknown {self._kind} {name!r}{self._hint(name)}; "
                f"available: {list(self.available())}"
            )
        return self._docs.get(name, "")

    def describe(self) -> Dict[str, str]:
        """``{name: one-line description}`` for every registered component."""
        return {name: self._docs.get(name, "") for name in self.available()}

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.available())

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self._kind!r}, {len(self._entries)} entries)"


#: Base-topology families: ``(n, rng, **params) -> Topology``.
TOPOLOGIES = Registry("topology")

#: Graph-sequence adversaries: ``(ctx, **params) -> Adversary``.
ADVERSARIES = Registry("adversary")

#: Distributed algorithms under test: ``(ctx, **params) -> DistributedAlgorithm``.
ALGORITHMS = Registry("algorithm")

#: Wake-up schedules: ``(ctx, **params) -> WakeupSchedule``.
WAKEUPS = Registry("wakeup")

#: Post-run metric extractors: ``(ctx, **params) -> Dict[str, float]``.
METRICS = Registry("metric")

#: Per-round observers: ``(ctx, **params) -> probe`` with ``observe``/``finish``.
PROBES = Registry("probe")

#: Early-stop predicates: ``(ctx, **params) -> Callable[[ExecutionTrace], bool]``.
STOP_CONDITIONS = Registry("stop condition")

#: All registries by family name — the scenario discovery surface.
REGISTRIES: Dict[str, Registry] = {
    "topologies": TOPOLOGIES,
    "adversaries": ADVERSARIES,
    "algorithms": ALGORITHMS,
    "wakeups": WAKEUPS,
    "metrics": METRICS,
    "probes": PROBES,
    "stop_conditions": STOP_CONDITIONS,
}


def _ensure_contracts() -> None:
    """Pull the validation-contract family into ``REGISTRIES`` on demand.

    :mod:`repro.verify.contracts` registers itself under ``"contracts"`` at
    import time; importing it lazily here keeps the discovery surface
    complete without making every scenario import pay for the harness.
    """
    if "contracts" in REGISTRIES:
        return
    try:
        import repro.verify.contracts  # noqa: F401 - imported for its registration side effect
    except ImportError:  # pragma: no cover - harness genuinely unavailable
        pass


def available(kind: Optional[str] = None, *, docs: bool = False):
    """List the registered component names.

    ``available()`` returns ``{family: (name, …)}`` for every registry;
    ``available("adversaries")`` returns just that family's names.  With
    ``docs=True`` every name comes with its one-line description instead:
    ``{family: {name: doc}}`` / ``{name: doc}``.
    """
    _ensure_contracts()
    if kind is None:
        if docs:
            return {family: registry.describe() for family, registry in REGISTRIES.items()}
        return {family: registry.available() for family, registry in REGISTRIES.items()}
    if kind not in REGISTRIES:
        raise RegistryError(f"unknown registry {kind!r}; available: {sorted(REGISTRIES)}")
    return REGISTRIES[kind].describe() if docs else REGISTRIES[kind].available()
