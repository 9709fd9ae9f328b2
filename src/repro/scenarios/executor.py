"""Scenario execution: seed replication, sweeps, and the batch engine.

:func:`run_scenario` turns one :class:`~repro.scenarios.spec.ScenarioSpec`
into per-seed result rows; :func:`sweep` expands a spec into a grid of
scenarios via dotted-path overrides and runs them all.  Execution is
delegated to the :mod:`repro.exec` subsystem: the independent work units —
one ``(scenario point, seed)`` pair each — are dispatched in chunks through
a pluggable backend (``serial`` / ``process`` / ``remote``) selected by an
:class:`~repro.exec.policy.ExecutionPolicy`.
``parallel=True`` remains the ergonomic switch for "fan out over cores"
(the ``process`` backend); the ``execution=`` parameter — or an ambient
policy installed with :func:`repro.exec.use_policy`, which is how the CLI's
``--backend``/``--chunk-size``/``--resume`` flags reach the experiment
entry points — takes full control.

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
import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.utils.rng import RngFactory
from repro.analysis.sweep import Replication, aggregate_rows
from repro.runtime.simulator import Simulator, delivery_mode
from repro.verify.policy import VerificationPolicy, active_verification
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

    Reports per-phase timings (setup / round loop / metric extraction) into
    the ambient :mod:`repro.exec.stats` collector when one is installed —
    that is where ``repro bench``'s timing splits come from.
    """
    from repro.exec.stats import UNIT_METRICS, UNIT_ROUNDS, UNIT_SETUP, timed_phase
    from repro.obs.trace import active_sink

    sink = active_sink()
    if sink is not None:
        sink.emit(
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
            row.update(METRICS.get(metric.name)(ctx, **metric.params))
        if probe is not None:
            row.update(probe.finish())
    if sink is not None:
        sink.emit(
            "unit_end",
            seed=int(seed),
            rounds=sim.trace.num_rounds,
            delivery=sim.delivery,
        )
    return row, sim


def _comparable_trace_rows(trace) -> List[tuple]:
    """Flatten a trace into the tuples the incremental-verification gate compares."""
    return [
        (
            record.round_index,
            record.topology.nodes,
            record.topology.edges,
            dict(record.outputs),
            record.metrics.as_dict(),
        )
        for record in trace
    ]


def _verify_against_full(spec: ScenarioSpec, seed: int, row: Row, sim: Simulator) -> None:
    """Re-run ``(spec, seed)`` on the full path and demand identical traces."""
    from repro.exec.stats import collect_stats

    path = sim.delivery
    blame = (
        "the algorithm's message_stability='pure' declaration is wrong"
        if path == "incremental"
        else "the array kernel diverges from its reference algorithm"
    )
    # The throwaway collector keeps the verification re-run's phase
    # timings out of the caller's stats — `repro bench` splits must
    # reflect one execution per seed, not the debug double-run.  The spec's
    # own delivery override is dropped: an explicit ``delivery="kernel"``
    # would beat the ambient delivery_mode() and verify against itself.
    # The retention knob is reset too, so a "stats" run is checked against
    # an independently-recorded full-retention reference trace.
    with delivery_mode("full"), collect_stats():
        full_row, full_sim = _execute_seed(
            spec.replace(delivery=None, trace_retention=None), seed
        )
    fast_rows = _comparable_trace_rows(sim.trace)
    full_rows = _comparable_trace_rows(full_sim.trace)
    # Metric rows are compared only for probe-less runs: a probe may
    # legitimately report the *engine's* per-round activity (e.g. the
    # "activity" probe reads the dirty set), which differs between
    # delivery paths by design.  The model-level record — every round's
    # topology, outputs and metrics — must always match.
    rows_comparable = spec.probe is None
    if fast_rows != full_rows or (rows_comparable and row != full_row):
        if len(fast_rows) != len(full_rows):
            raise SimulationError(
                f"{path} delivery simulated {len(fast_rows)} rounds but "
                f"the full path {len(full_rows)} for algorithm {spec.algorithm.name!r} "
                f"(seed {seed}): {blame}"
            )
        for fast, full in zip(fast_rows, full_rows):
            if fast != full:
                raise SimulationError(
                    f"{path} delivery diverged from the full path at round "
                    f"{fast[0]} for algorithm {spec.algorithm.name!r} (seed {seed}): "
                    f"{blame}"
                )
        raise SimulationError(
            f"{path} delivery produced a different metric row than the "
            f"full path for algorithm {spec.algorithm.name!r} (seed {seed}): "
            f"{blame}"
        )


#: (modes, delivery, algorithm) triples already warned about — the loud
#: degradation warning fires once per distinct situation, not once per seed.
_DEGRADED_WARNED: Set[Tuple[Tuple[str, ...], str, str]] = set()


def _warn_degraded(policy: VerificationPolicy, spec: ScenarioSpec, sim: Simulator) -> None:
    """A verified path was requested but the seed ran elsewhere — say so loudly."""
    key = (policy.modes(), sim.delivery, spec.algorithm.name)
    if key in _DEGRADED_WARNED:
        return
    _DEGRADED_WARNED.add(key)
    wanted = " and ".join(repr(mode) for mode in policy.modes())
    warnings.warn(
        f"verification of the {wanted} delivery path was requested, but this "
        f"seed of algorithm {spec.algorithm.name!r} executed on the "
        f"{sim.delivery!r} path (not kernel-eligible, or delivery pinned "
        f"elsewhere) — the requested gate did not run",
        UserWarning,
        stacklevel=3,
    )


def run_scenario_seed(spec: ScenarioSpec, seed: int) -> Row:
    """Run one seed-replication of ``spec`` and return its metric row.

    This is the deterministic work unit of the batch executor: the same
    ``(spec, seed)`` pair always yields the same row, in any process.

    When the active :class:`~repro.verify.policy.VerificationPolicy` (the
    ``--verify`` CLI flag, a config's ``"verification"`` block, or the
    ``REPRO_VERIFY`` environment variable) covers the
    delivery path this seed ran on, the seed is re-executed on the full path
    and the two traces must match row for row — the gate that catches an
    algorithm declaring a ``"pure"`` contract it does not honour, or a
    vectorised kernel drifting from its reference.  Requesting a path the
    seed did not run on warns loudly instead of silently passing.
    """
    row, sim = _execute_seed(spec, seed)
    policy = active_verification()
    if policy.enabled:
        if policy.wants(sim.delivery):
            _verify_against_full(spec, seed, row, sim)
        else:
            _warn_degraded(policy, spec, sim)
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
    parallel: bool = False,
    max_workers: Optional[int] = None,
    execution: Optional[Any] = None,
) -> ScenarioResult:
    """Run every seed of ``spec`` and collect the per-seed rows.

    With ``parallel=True`` the seed replications run in worker processes;
    ``execution`` (an :class:`~repro.exec.policy.ExecutionPolicy`, a backend
    name, or an ``"execution"`` config mapping) selects the backend, chunking
    and checkpointing explicitly.  Every execution mode produces rows
    identical to the serial run (see module docstring).
    """
    from repro.exec import resolve_policy, run_units, units_for_spec

    units = units_for_spec(spec)
    policy = resolve_policy(parallel=parallel, max_workers=max_workers, execution=execution)
    rows = run_units(units, policy, label=spec.label)
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
    parallel: bool = False,
    max_workers: Optional[int] = None,
    execution: Optional[Any] = None,
) -> List[ScenarioResult]:
    """Run the cartesian grid of ``over`` overrides applied to ``spec``.

    ``over`` maps dotted paths into the spec (see
    :meth:`~repro.scenarios.spec.ScenarioSpec.with_overrides`) to value lists::

        sweep(spec, over={
            "n": [64, 128, 256],
            "adversary.params.flip_prob": [0.001, 0.01, 0.1],
        }, parallel=True)

    Returns one :class:`ScenarioResult` per grid point, in row-major order of
    the ``over`` mapping; every point carries the overrides that produced it.
    All ``len(grid) × len(seeds)`` work units run as one batch (one worker
    pool, one sweep journal, one progress line); see :func:`run_scenario` for
    the ``execution`` parameter.
    """
    from repro.exec import resolve_policy, run_units

    points, units, bounds = expand_sweep(spec, over)
    policy = resolve_policy(parallel=parallel, max_workers=max_workers, execution=execution)
    rows = run_units(units, policy, label=spec.label if spec.name else "sweep")
    return [
        ScenarioResult(spec=point_spec, rows=tuple(rows[start:end]), overrides=overrides)
        for (overrides, point_spec), (start, end) in zip(points, bounds)
    ]
