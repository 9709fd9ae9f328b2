"""Scenario execution: seed replication, sweeps, and the batch engine.

:func:`run_scenario` turns one :class:`~repro.scenarios.spec.ScenarioSpec`
into per-seed result rows; :func:`sweep` expands a spec into a grid of
scenarios via dotted-path overrides and runs them all.  Execution is
delegated to the :mod:`repro.exec` subsystem: the independent work units —
one ``(scenario point, seed)`` pair each — are dispatched in chunks through
a pluggable backend (``serial`` / ``process`` / ``remote``) selected by an
:class:`~repro.exec.policy.ExecutionPolicy`.
The ``execution=`` parameter picks the policy; without it a call runs
under the ambient policy installed with :func:`repro.exec.use_policy`
(which is how the CLI's ``--backend``/``--chunk-size``/``--resume`` flags
reach the experiment entry points), and serially outside one.

Determinism is a hard requirement: a work unit is a pure function of
``(spec, seed)`` (every random stream derives from the seed through
:class:`~repro.utils.rng.RngFactory`), units are dispatched and re-assembled
in a fixed order, and aggregation folds rows in seed order.  Every backend
therefore produces *identical* rows to the serial path — byte for byte —
and pooled backends fall back to serial execution automatically if worker
processes cannot be spawned (restricted environments, non-picklable
third-party components).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.rng import RngFactory
from repro.analysis.sweep import Replication, aggregate_rows
from repro.runtime.simulator import Simulator
from repro.scenarios.configs import check_spec_params
from repro.scenarios.registry import (
    ADVERSARIES,
    ALGORITHMS,
    METRICS,
    PROBES,
    STOP_CONDITIONS,
    TOPOLOGIES,
    WAKEUPS,
)
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ScenarioContext",
    "ScenarioResult",
    "expand_sweep",
    "run_scenario",
    "run_scenario_seed",
    "sweep",
]

Row = Dict[str, float]


@dataclass
class ScenarioContext:
    """Everything one seed-replication of a scenario has in scope.

    Component factories receive the context while it is being populated (the
    base topology exists before the adversary is built, the adversary before
    the algorithm); metric extractors and probes see the fully populated
    context including the finished ``trace``.
    """

    spec: ScenarioSpec
    seed: int
    n: int
    T1: int
    rounds: int
    rng_factory: RngFactory
    base: Any = None
    wakeup: Any = None
    adversary: Any = None
    algorithm: Any = None
    trace: Any = None

    def stream(self, *names: object) -> np.random.Generator:
        """A named random stream derived from this replication's seed."""
        return self.rng_factory.stream(*names)

    def resolve(self, value, **extra: float) -> int:
        """Resolve a duration parameter (int or ``"2*T1"``-style expression)."""
        from repro.scenarios.spec import resolve_expression, standard_variables

        return resolve_expression(value, **standard_variables(n=self.n, T1=self.T1, **extra))


def _build_context(spec: ScenarioSpec, seed: int) -> ScenarioContext:
    n = spec.n
    ctx = ScenarioContext(
        spec=spec,
        seed=int(seed),
        n=n,
        T1=spec.resolved_window(),
        rounds=spec.resolved_rounds(),
        rng_factory=RngFactory(int(seed)),
    )
    # Built through the per-process topology cache: repeated (family, params,
    # n, seed) tuples — adversary/algorithm grid points, resumed sweeps —
    # reuse the immutable Topology instead of regenerating it (the cache
    # spawns the identical ("topology", name, n) stream on a miss, so hits
    # and misses are byte-indistinguishable).
    from repro.exec.cache import cached_base_topology

    topology = spec.topology
    ctx.base = cached_base_topology(topology.name, topology.params, n, ctx.seed)
    if spec.wakeup is not None:
        ctx.wakeup = WAKEUPS.get(spec.wakeup.name)(ctx, **spec.wakeup.params)
    ctx.adversary = ADVERSARIES.get(spec.adversary.name)(ctx, **spec.adversary.params)
    ctx.algorithm = ALGORITHMS.get(spec.algorithm.name)(ctx, **spec.algorithm.params)
    return ctx


def _execute_seed(spec: ScenarioSpec, seed: int) -> Tuple[Row, Simulator]:
    """Run one seed-replication and return its metric row plus the simulator.

    Records per-phase timings (setup / round loop / metric extraction, and
    each metric's own time under :func:`~repro.exec.stats.metric_phase`) and
    the ``unit_begin`` / ``unit_end`` events with the run recorder
    (:mod:`repro.obs.trace`) — that is where the phase splits ``repro log``
    and ``repro report`` show come from.
    """
    from repro.exec.stats import UNIT_METRICS, UNIT_ROUNDS, UNIT_SETUP, metric_phase, timed_phase
    from repro.obs.trace import emit

    emit(
        "unit_begin",
        label=spec.label,
        seed=int(seed),
        algorithm=spec.algorithm.name,
        adversary=spec.adversary.name,
    )
    with timed_phase(UNIT_SETUP):
        ctx = _build_context(spec, seed)
        stop_when = None
        if spec.stop is not None:
            stop_when = STOP_CONDITIONS.get(spec.stop.name)(ctx, **spec.stop.params)
        sim = Simulator(
            n=ctx.n,
            algorithm=ctx.algorithm,
            adversary=ctx.adversary,
            seed=ctx.seed,
            delivery=spec.delivery or "auto",
            trace_retention=spec.trace_retention or "full",
            expose_state_to_adversary=spec.expose_state_to_adversary,
            # With a probe, the round loop below owns the stop check — passing
            # the predicate to the simulator too would evaluate it twice a round.
            stop_when=None if spec.probe is not None else stop_when,
        )
        probe = None
        if spec.probe is not None:
            probe = PROBES.get(spec.probe.name)(ctx, **spec.probe.params)
    with timed_phase(UNIT_ROUNDS):
        if probe is not None:
            for _ in range(ctx.rounds):
                sim.run(1)
                if probe.observe(sim):
                    break
                if stop_when is not None and stop_when(sim.trace):
                    break
        else:
            sim.run(ctx.rounds)
    ctx.trace = sim.trace

    row: Row = {}
    with timed_phase(UNIT_METRICS):
        for metric in spec.metrics:
            with timed_phase(metric_phase(metric.name)):
                row.update(METRICS.get(metric.name)(ctx, **metric.params))
        if probe is not None:
            row.update(probe.finish())
    emit("unit_end", seed=int(seed), rounds=sim.trace.num_rounds, delivery=sim.delivery)
    return row, sim


_VERIFY_INSTEAD = "repro verify --contracts delivery-equivalence --configs <dir>"

#: Environment variables that once picked a delivery path or switched on an
#: in-run fast-vs-full gate, by what replaced them.
_RETIRED_ENV = {
    "REPRO_DELIVERY": "the scenario spec's 'delivery' field",
    "REPRO_VERIFY": _VERIFY_INSTEAD,
    "REPRO_VERIFY_INCREMENTAL": _VERIFY_INSTEAD,
    "REPRO_VERIFY_KERNEL": _VERIFY_INSTEAD,
}


def _reject_retired_env() -> None:
    """Fail on a leftover delivery/verification variable instead of ignoring it.

    Only a value that used to do something counts (``""`` and ``"0"`` never
    did): silently ignoring a stale switch would turn a gate off unseen.
    """
    for env, replacement in _RETIRED_ENV.items():
        if os.environ.get(env, "").strip() not in ("", "0"):
            raise ConfigurationError(f"{env} is no longer supported; use {replacement} instead")


def run_scenario_seed(spec: ScenarioSpec, seed: int) -> Row:
    """Run one seed-replication of ``spec`` and return its metric row.

    This is the deterministic work unit of the batch executor: the same
    ``(spec, seed)`` pair always yields the same row, in any process.  The
    delivery path is the spec's ``delivery`` field; whether a fast path
    reproduces the full one is checked by the ``delivery-equivalence``
    contract of ``repro verify``, not per seed.  A component parameter no
    factory accepts is a :class:`ConfigurationError` naming its field, as it
    is from :func:`~repro.scenarios.configs.load_config`.
    """
    _reject_retired_env()
    check_spec_params(spec)
    row, _ = _execute_seed(spec, seed)
    return row


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    """The per-seed rows of one scenario (plus the overrides that produced it)."""

    spec: ScenarioSpec
    rows: Tuple[Row, ...]
    overrides: Mapping[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        """The scenario's display label."""
        return self.spec.label

    def replication(self) -> Replication:
        """The rows as an :class:`~repro.analysis.sweep.Replication`."""
        return Replication(label=self.label, rows=self.rows)

    def aggregate(
        self,
        *,
        mean_keys: Sequence[str] = (),
        std_keys: Sequence[str] = (),
        max_keys: Sequence[str] = (),
        extra: Optional[Mapping[str, float]] = None,
    ) -> Row:
        """Collapse the per-seed rows into one aggregated row (means/stds/maxima)."""
        return aggregate_rows(
            self.replication(),
            mean_keys=mean_keys,
            std_keys=std_keys,
            max_keys=max_keys,
            extra=extra,
        )

    def mean(self, key: str) -> float:
        """Mean of ``key`` over the seed rows (NaNs skipped)."""
        return self.replication().mean(key)

    def max(self, key: str) -> float:
        """Maximum of ``key`` over the seed rows (NaNs skipped)."""
        return self.replication().max(key)


# ---------------------------------------------------------------------------
# the batch engine (dispatch lives in repro.exec)
# ---------------------------------------------------------------------------


def run_scenario(
    spec: ScenarioSpec,
    *,
    execution: Optional[Any] = None,
) -> ScenarioResult:
    """Run every seed of ``spec`` and collect the per-seed rows.

    ``execution`` (an :class:`~repro.exec.policy.ExecutionPolicy`, a backend
    name such as ``"process"``, or an ``"execution"`` config mapping) selects
    the backend, chunking and checkpointing; ``None`` uses the ambient
    policy, else serial (see :func:`repro.exec.resolve_policy`).  Every
    execution mode produces rows identical to the serial run (see module
    docstring).
    """
    from repro.exec import resolve_policy, run_units, units_for_spec

    units = units_for_spec(spec)
    rows = run_units(units, resolve_policy(execution), label=spec.label)
    return ScenarioResult(spec=spec, rows=tuple(rows))


def expand_sweep(
    spec: ScenarioSpec, over: Mapping[str, Sequence[Any]]
) -> Tuple[List[Tuple[Mapping[str, Any], ScenarioSpec]], List[Any], List[Tuple[int, int]]]:
    """Expand a sweep grid into ``(points, units, bounds)`` without running it.

    ``points`` is one ``(overrides, point spec)`` pair per grid point in
    row-major order of ``over``; ``units`` is the flat work-unit batch of the
    whole sweep (the list whose :func:`~repro.exec.units.batch_key` names the
    sweep journal — which is how ``repro audit``/``repro repair`` match an
    interrupted checkpoint back to its committed config); ``bounds`` are each
    point's ``(start, end)`` slice into the batch.
    """
    from repro.exec import units_for_spec

    if not over:
        raise ConfigurationError("sweep() needs at least one override axis")
    keys = list(over)
    axes = [list(over[key]) for key in keys]
    for key, values in zip(keys, axes):
        if not values:
            raise ConfigurationError(f"sweep axis {key!r} has no values")

    points: List[Tuple[Mapping[str, Any], ScenarioSpec]] = []
    for combo in itertools.product(*axes):
        overrides = dict(zip(keys, combo))
        points.append((overrides, spec.with_overrides(overrides)))

    units: List[Any] = []
    bounds: List[Tuple[int, int]] = []
    for _, point_spec in points:
        start = len(units)
        units.extend(units_for_spec(point_spec))
        bounds.append((start, len(units)))
    return points, units, bounds


def sweep(
    spec: ScenarioSpec,
    over: Mapping[str, Sequence[Any]],
    *,
    execution: Optional[Any] = None,
) -> List[ScenarioResult]:
    """Run the cartesian grid of ``over`` overrides applied to ``spec``.

    ``over`` maps dotted paths into the spec (see
    :meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides`) to value lists::

        sweep(spec, over={
            "n": [64, 128, 256],
            "adversary.params.flip_prob": [0.001, 0.01, 0.1],
        }, execution="process")

    Returns one :class:`ScenarioResult` per grid point, in row-major order of
    the ``over`` mapping; every point carries the overrides that produced it.
    All ``len(grid) × len(seeds)`` work units run as one batch (one worker
    pool, one sweep journal, one progress line); see :func:`run_scenario` for
    the ``execution`` parameter.
    """
    from repro.exec import resolve_policy, run_units

    points, units, bounds = expand_sweep(spec, over)
    rows = run_units(units, resolve_policy(execution), label=spec.label if spec.name else "sweep")
    return [
        ScenarioResult(spec=point_spec, rows=tuple(rows[start:end]), overrides=overrides)
        for (overrides, point_spec), (start, end) in zip(points, bounds)
    ]
