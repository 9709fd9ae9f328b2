"""One measured pass of one benchmark workload, in a fresh process.

``run.py`` starts this file once per pass; it is not meant to be run by
hand, except to re-record the reference digests after a deliberate change to
a workload definition::

    python3 perfbench/workloads.py --record-reference

A pass imports the program from ``--src``, derives one op input from
``--seed``, repeats that op in a closed loop for ``--seconds`` (each repeat
starts cold, after the previous one ended), checks every repeat's output,
and prints one JSON object as its last stdout line.  With ``--traced`` it
also installs the spans of :mod:`spans` and reads the program's own
``REPRO_TRACE`` events (the parent sets the variable).

The three workloads (see README.md for why each exists):

``paper-concat``
    one op = DynamicColoring then DynamicMIS (the ``Concat`` combiners of
    Theorem 1.1), n=64, serial, ``validity`` + ``stability`` metrics, each
    unit run by the executor's ``run_scenario_seed`` and stored.
``kernel-scale``
    one op = SMis on a 30 000-node G(n, p) under dense Markov churn,
    121 rounds on the array kernel, ``trace_retention="stats"``, run by
    ``run_scenario_seed`` and stored.
``sweep-matrix``
    one op = a process-backend ``sweep`` over 4 algorithms x 9 adversaries x
    2 seeds, stored into a fresh ``ResultsStore`` and put a second time.

On its first ``SAMPLE_REPEATS`` repeats a workload also runs a *sample*
pass: the op's units through :func:`run_unit`, the benchmark's stepped copy
of the executor's unit, which times set-up, round 1 and every later round.
Sample pass ``i`` of paper-concat and kernel-scale runs input ``i`` of the
run's seed; sweep-matrix's runs the grid's first seed.  The traced pass
runs every unit through :func:`run_unit`, with its spans.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

sys.path.insert(0, str(BENCH_DIR))
from spans import NullRecorder, SpanRecorder  # noqa: E402

#: The seed whose per-unit rows must match ``reference.json``.
DEFAULT_SEED = 0
#: Median time of :func:`host_probe` on the reference host (2-vCPU Xeon VM).
PROBE_REF_S = 0.0184
#: Probes taken before every repeat and after the last one.
PROBES_PER_REPEAT = 5

# ---------------------------------------------------------------------------
# workload definitions (plain data; ScenarioSpec.from_dict builds them)
# ---------------------------------------------------------------------------

PAPER_CONCAT = [
    {
        "n": 64,
        "algorithm": {"name": name, "params": {}},
        "adversary": {"name": "flip-churn", "params": {"flip_prob": 0.01}},
        "topology": {"name": "gnp_degree", "params": {"degree": 8}},
        "rounds": "4*T1",
        "metrics": [
            {"name": "validity", "params": {"problem": problem}},
            {"name": "stability", "params": {}},
        ],
    }
    for name, problem in (("dynamic-coloring", "coloring"), ("dynamic-mis", "mis"))
]

KERNEL_SCALE = {
    "n": 30_000,
    "algorithm": {"name": "smis", "params": {}},
    "adversary": {"name": "markov-churn", "params": {"p_off": 0.2, "p_on": 0.2}},
    "topology": {"name": "gnp_degree", "params": {"degree": 12}},
    "rounds": 121,
    "trace_retention": "stats",
    "metrics": [{"name": "output-activity", "params": {}}],
}

SWEEP_BASE = {
    "n": 64,
    "algorithm": {"name": "smis", "params": {}},
    "topology": {"name": "gnp_degree", "params": {"degree": 8}},
    "rounds": "2*T1",
    "metrics": [{"name": "stability", "params": {}}, {"name": "trace-summary", "params": {}}],
}
SWEEP_SEEDS = 2
SWEEP_GRID = {
    "algorithm.name": ["smis", "dmis", "scolor", "basic-coloring"],
    "adversary": [
        {"name": "static", "params": {}},
        {"name": "flip-churn", "params": {"flip_prob": 0.01}},
        {"name": "markov-churn", "params": {"p_off": 0.05, "p_on": 0.05}},
        {"name": "burst-churn", "params": {}},
        {"name": "edge-insertion", "params": {}},
        {"name": "targeted-coloring", "params": {}},
        {"name": "targeted-mis", "params": {}},
        {"name": "locally-static", "params": {}},
        {"name": "mobility", "params": {}},
    ],
}
SWEEP_ROW_KEYS = {"mean_changes", "max_changes", "change_rate", "rounds", "trace_rounds"}
SWEEP_WORKERS = 2
#: Repeats that also run the sample pass; every run makes at least these.
SAMPLE_REPEATS = {"paper-concat": 5, "kernel-scale": 5, "sweep-matrix": 8}

WORKLOADS = ("paper-concat", "kernel-scale", "sweep-matrix")


def workload_params(workload: str) -> Dict[str, Any]:
    """The definition of ``workload`` as data (the run record carries it)."""
    if workload == "paper-concat":
        return {"specs": PAPER_CONCAT}
    if workload == "kernel-scale":
        return {"spec": KERNEL_SCALE}
    return {
        "spec": SWEEP_BASE,
        "over": SWEEP_GRID,
        "seeds_per_point": SWEEP_SEEDS,
        "backend": "process",
        "workers": SWEEP_WORKERS,
    }


def unit_seed(seed: int, offset: int = 0) -> int:
    """The scenario seed of input ``offset`` in a run with ``--seed seed``."""
    return seed * 1000 + offset


def digest(row: Dict[str, Any]) -> str:
    text = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def definition_key() -> str:
    """Hash of every workload definition: a stale reference is detected, not trusted."""
    data = {w: workload_params(w) for w in WORKLOADS}
    data["unit_seed"] = [unit_seed(DEFAULT_SEED, j) for j in range(SWEEP_SEEDS)]
    return digest(data)


# ---------------------------------------------------------------------------
# importing the program
# ---------------------------------------------------------------------------


def import_program(src: Path):
    """Import ``repro`` from ``src`` and refuse any other installation."""
    src = src.resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src:
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, expected {src}")
    return repro


# ---------------------------------------------------------------------------
# one (spec, seed) unit, driven through the public entry points
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Unit:
    row: Dict[str, Any]
    status: Optional[str]
    setup_s: float
    #: Round timings and the built objects; stepped units (:func:`run_unit`) only.
    first_round_s: Optional[float] = None
    round_s: List[float] = dataclasses.field(default_factory=list)
    ctx: Any = None
    capture: Optional[dict] = None


def execute_unit(repro_api, spec, seed: int, store) -> Unit:
    """Run one ``(spec, seed)`` through the executor's work unit and store its row.

    ``setup_s`` is the executor's own ``UNIT_SETUP`` phase.
    """
    from repro.exec.stats import UNIT_SETUP, collect_stats
    from repro.scenarios.executor import run_scenario_seed

    with collect_stats() as stats:
        row = run_scenario_seed(spec, seed)
    key = {"kind": "scenario", "spec": spec.replace(seeds=(seed,)).to_dict()}
    _, status = store.put("scenarios", spec.label, key, [row])
    return Unit(row=row, status=status, setup_s=stats.seconds(UNIT_SETUP))


def _instrument(rec, ctx, capture: Optional[dict]) -> None:
    """Install instance-level wrappers on the adversary and algorithm of ``ctx``.

    ``capture`` (kernel-scale) receives the plan's edge universe and the last
    presence mask, which the output check needs; it is filled with or without
    tracing.
    """
    adversary, algorithm = ctx.adversary, ctx.algorithm
    if rec.enabled or capture is not None:
        original_plan = adversary.kernel_plan

        def kernel_plan():
            plan = original_plan()
            if plan is None:
                return None
            advance = plan.advance

            def traced_advance(round_index):
                span = rec.begin("dynamics.plan_advance")
                try:
                    mask = advance(round_index)
                finally:
                    rec.end(span)
                if capture is not None:
                    capture["mask"] = mask
                return mask

            if capture is not None:
                capture["edges"] = plan.universe_edges
            return dataclasses.replace(plan, advance=traced_advance)

        adversary.kernel_plan = kernel_plan
    if not rec.enabled:
        return
    rec.wrap(adversary, "step", "dynamics.adversary_step")
    for attr in ("compose", "deliver", "output"):
        rec.wrap_leaf(algorithm, attr, f"algorithms.{attr}")
    for attr in ("setup", "wake", "begin_round", "end_round", "metrics"):
        rec.wrap_leaf(algorithm, attr, "algorithms.hooks")
    original_as_kernel = algorithm.as_kernel

    def as_kernel():
        factory = original_as_kernel()
        if factory is None:
            return None

        def build():
            kernel = factory()
            _instrument_kernel(rec, kernel)
            return kernel

        return build

    algorithm.as_kernel = as_kernel


def _instrument_kernel(rec, kernel) -> None:
    """Wrap an array kernel; the universe span runs until the engine hands it over.

    ``delivery="auto"`` only picks the kernel path together with a plan, so
    the engine built is the array engine, whose constructor ends by calling
    ``set_array_mode`` — after the edge universe is built.
    """
    for attr in ("wake", "compose", "deliver", "post_round"):
        rec.wrap(kernel, attr, f"kernel.{attr}")
    span = rec.begin("kernel.universe_build")
    original = getattr(kernel, "set_array_mode", None)

    def set_array_mode(universe):
        rec.end(span)
        if original is not None:
            original(universe)

    kernel.set_array_mode = set_array_mode


def run_unit(repro_api, spec, seed: int, store, rec, capture: Optional[dict] = None) -> Unit:
    """Generate, set up, simulate, extract metrics and store one ``(spec, seed)``.

    A stepped copy of the executor's unit (``_build_context`` and
    ``_execute_seed`` behind ``run_scenario_seed``), so each step and round
    can be timed and wrapped in spans.  It must follow those two functions.
    Its rows are checked against ``run_scenario_seed``'s, so drift in what
    it computes shows as a wrong row; ``e2e_s`` and (except on sweep-matrix)
    ``setup_s`` are timed on ``run_scenario_seed`` itself.
    """
    from repro.exec.cache import cached_base_topology
    from repro.scenarios.executor import ScenarioContext
    from repro.scenarios.registry import ADVERSARIES, ALGORITHMS, METRICS

    if spec.wakeup is not None or spec.probe is not None or spec.stop is not None:
        raise ValueError("the benchmark unit runner supports no wakeup/probe/stop")
    started = perf_counter()
    ticks: List[float] = []
    open_round: list = []

    def tick(_trace) -> bool:
        ticks.append(perf_counter())
        if open_round:
            rec.end(open_round.pop())
            open_round.append(rec.begin("runtime.round"))
        return False

    with rec.span("unit"):
        ctx = ScenarioContext(
            spec=spec,
            seed=seed,
            n=spec.n,
            T1=spec.resolved_window(),
            rounds=spec.resolved_rounds(),
            rng_factory=repro_api.RngFactory(seed),
        )
        with rec.span("dynamics.topology"):
            ctx.base = cached_base_topology(spec.topology.name, spec.topology.params, spec.n, seed)
        with rec.span("dynamics.adversary_init"):
            ctx.adversary = ADVERSARIES.get(spec.adversary.name)(ctx, **spec.adversary.params)
        with rec.span("algorithms.init"):
            ctx.algorithm = ALGORITHMS.get(spec.algorithm.name)(ctx, **spec.algorithm.params)
        _instrument(rec, ctx, capture)
        with rec.span("runtime.sim_init"):
            sim = repro_api.Simulator(
                n=ctx.n,
                algorithm=ctx.algorithm,
                adversary=ctx.adversary,
                seed=ctx.seed,
                delivery=spec.delivery or "auto",
                trace_retention=spec.trace_retention or "full",
                expose_state_to_adversary=spec.expose_state_to_adversary,
                stop_when=tick,
            )
        setup_done = perf_counter()
        if rec.enabled:
            open_round.append(rec.begin("runtime.round"))
        sim.run(ctx.rounds)
        if rec.enabled:
            last = open_round.pop()
            last.name = "runtime.finalize"
            rec.end(last)
        ctx.trace = sim.trace
        row: Dict[str, Any] = {}
        for metric in spec.metrics:
            layer = "problems.validity" if metric.name == "validity" else "analysis.metrics"
            with rec.span(layer):
                row.update(METRICS.get(metric.name)(ctx, **metric.params))
        status = None
        if store is not None:
            with rec.span("scenarios.store_write"):
                key = {"kind": "scenario", "spec": spec.replace(seeds=(seed,)).to_dict()}
                _, status = store.put("scenarios", spec.label, key, [row])
    if len(ticks) != ctx.rounds:
        raise RuntimeError(f"simulated {len(ticks)} of {ctx.rounds} rounds")
    return Unit(
        row=row,
        status=status,
        setup_s=setup_done - started,
        first_round_s=ticks[0] - setup_done,
        round_s=[b - a for a, b in zip(ticks, ticks[1:])],
        ctx=ctx,
        capture=capture,
    )


# ---------------------------------------------------------------------------
# the measured pass
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Repeat:
    """One completed op of a pass and its timings."""

    index: int  #: the op's place in the closed loop (failed ops have one too)
    op_s: float
    setup_s: List[float]  #: per timed unit
    stepped: List[Unit]  #: the sample pass's units, or the traced op's; may be empty


class Pass:
    """One pass: the same op input, repeated; its timings, checks and failures.

    Every repeat starts cold (caches cleared, fresh store), so each one pays
    what a standalone run pays.  Many short repeats and host probes between
    them guard against a host whose speed drifts by tens of percent.
    """

    def __init__(self, workload: str, seed: int, reference: Optional[dict]) -> None:
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.repeats: List[Repeat] = []
        self.units_per_op = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.store_bytes = 0
        self.probe_s: List[float] = []
        self._first_rows: Optional[List[Dict[str, Any]]] = None

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)

    def judge(self, rows: List[Dict[str, Any]], bad: Dict[int, str]) -> None:
        """Count every wrong unit of a repeat once.

        ``bad`` maps a unit index to the invariant it broke.  A row is wrong
        too when it differs from the same unit's row in the first repeat, or,
        with the default seed, from the reference digest.
        """
        if self._first_rows is None:
            self._first_rows = rows
        for k, row in enumerate(rows):
            if k >= len(self._first_rows) or row != self._first_rows[k]:
                bad.setdefault(k, "row differs from the first repeat's row")
        if self.seed == DEFAULT_SEED and self.reference is not None:
            expected = self.reference["digests"][self.workload]
            for k, row in enumerate(rows):
                if k >= len(expected) or digest(row) != expected[k]:
                    bad.setdefault(k, "row differs from the reference digest")
        if bad:
            first = min(bad)
            repeat = len(self.repeats)
            self.fail(
                len(bad), f"repeat {repeat}: {len(bad)} wrong units, e.g. {first}: {bad[first]}"
            )


#: Buffers of :func:`host_probe`, made on its first call and reused, so the
#: probe adds no more than about 1.5 MB to the pass's peak RSS.
_PROBE_TABLE: Dict[int, int] = {}
_PROBE_ARRAYS: List[Any] = []


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that uses no program code.

    The host's speed drifts by tens of percent over minutes.  The probes
    just before and after a repeat measure the speed it ran at.  The probe
    allocates nothing after its first call, so it does not move
    ``peak_rss_mb``.
    """
    import numpy as np

    if not _PROBE_ARRAYS:
        values = np.arange(1 << 16, dtype=np.int64)[::-1] * 7 % 1009
        _PROBE_ARRAYS.extend((values, np.empty_like(values)))
    values, buffer = _PROBE_ARRAYS
    table = _PROBE_TABLE
    started = perf_counter()
    odd = 0
    for i in range(60_000):
        table[i & 4095] = (i * 7919) % 1009
        odd += table[i & 4095] & 1
    for _ in range(6):
        np.copyto(buffer, values)
        buffer.sort(kind="stable")
    return perf_counter() - started


def closed_loop(run: Pass, seconds: float, op: Callable[[int], None]) -> None:
    """Run ops back to back while the next one, if as long as the last, ends within ``seconds``.

    At least ``SAMPLE_REPEATS`` ops run.  Host probes run between the ops,
    outside every timed region.
    """
    min_ops = SAMPLE_REPEATS[run.workload]
    started = perf_counter()
    durations: List[float] = []
    while len(durations) < min_ops or (
        perf_counter() - started + durations[-1] <= seconds
    ):
        run.probe_s.extend(host_probe() for _ in range(PROBES_PER_REPEAT))
        t = perf_counter()
        op(len(durations))
        durations.append(perf_counter() - t)
    run.probe_s.extend(host_probe() for _ in range(PROBES_PER_REPEAT))


def _cold_start() -> None:
    """Drop the caches and the garbage of the previous repeat or sample pass."""
    from repro.exec.cache import topology_cache_clear
    from repro.exec.shm import shm_state_clear

    topology_cache_clear()
    shm_state_clear()
    gc.collect()


def _fresh_store(repro_api, run: Pass):
    directory = WORK / "store" / run.workload
    shutil.rmtree(directory, ignore_errors=True)
    return repro_api.ResultsStore(directory)


#: ``check_row(k, row) -> problem or None`` on each op row;
#: ``check_stepped(unit) -> problem or None`` on each stepped unit, which
#: still holds its context and capture.
RowCheck = Callable[[int, Dict[str, Any]], Optional[str]]
SteppedCheck = Callable[[Unit], Optional[str]]


def _scenario_loop(
    repro_api,
    run: Pass,
    seconds: float,
    rec,
    specs: List[Any],
    check_row: RowCheck,
    check_stepped: SteppedCheck,
    capture: bool,
) -> None:
    """The closed loop of paper-concat and kernel-scale: one op = every spec, stored.

    Untraced, the op runs each unit through :func:`execute_unit`, and the
    first repeats run a sample pass of :func:`run_unit` before it.  Sample
    pass ``i`` runs input ``i`` of the run's seed, so the round metrics, which
    are medians over the passes, describe several graphs rather than one;
    pass 0 runs the op's own input, and its rows must equal the op's.
    Traced, the op runs :func:`run_unit` with its spans.
    """
    seed = unit_seed(run.seed)
    run.units_per_op = len(specs)

    def stepped(store, k: int, input_seed: int) -> Unit:
        return run_unit(repro_api, specs[k], input_seed, store, rec, {} if capture else None)

    def op(i: int) -> None:
        bad: Dict[int, str] = {}
        samples: List[Unit] = []
        if not rec.enabled and i < SAMPLE_REPEATS[run.workload]:
            _cold_start()
            run.attempted += len(specs)
            try:
                samples = [stepped(None, k, unit_seed(run.seed, i)) for k in range(len(specs))]
            except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
                run.fail(len(specs), f"repeat {i}: {traceback.format_exc(limit=3)}")
                return
            for k, unit in enumerate(samples):
                problem = check_row(k, unit.row) or check_stepped(unit)
                if problem:
                    bad[len(specs) + k] = problem
                # Release the trace before the op, so peak RSS holds one unit.
                unit.ctx = unit.capture = None
        _cold_start()
        store = _fresh_store(repro_api, run)
        run.attempted += len(specs)
        try:
            started = perf_counter()
            with rec.span("op"):
                if rec.enabled:
                    units = [stepped(store, k, seed) for k in range(len(specs))]
                else:
                    units = [execute_unit(repro_api, spec, seed, store) for spec in specs]
            elapsed = perf_counter() - started
        except Exception:  # noqa: BLE001
            run.fail(len(specs), f"repeat {i}: {traceback.format_exc(limit=3)}")
            return
        for k, unit in enumerate(units):
            problem = check_row(k, unit.row)
            if problem is None and unit.status != "created":
                problem = f"store status {unit.status!r}"
            if problem is None and unit.ctx is not None:
                problem = check_stepped(unit)
            if problem:
                bad[k] = problem
            unit.ctx = unit.capture = None
        for k, unit in enumerate(samples if i == 0 else []):
            if unit.row != units[k].row:
                bad.setdefault(len(specs) + k, "stepped row differs from the executor's row")
        run.judge([u.row for u in units], bad)
        run.store_bytes = _store_bytes(store.root)
        ticked = units if rec.enabled else samples
        run.repeats.append(Repeat(i, elapsed, [u.setup_s for u in units], ticked))

    closed_loop(run, seconds, op)


def _paper_concat(repro_api, run: Pass, seconds: float, rec) -> None:
    specs = [repro_api.ScenarioSpec.from_dict(d) for d in PAPER_CONCAT]
    rounds = [float(spec.resolved_rounds()) for spec in specs]

    def check_row(k: int, row: Dict[str, Any]) -> Optional[str]:
        # Theorem 1.1: DynamicColoring is T-dynamic in every round.
        if k == 0 and row.get("valid_fraction") != 1.0:
            return f"DynamicColoring valid_fraction {row.get('valid_fraction')}"
        if row.get("rounds_checked") != rounds[k] or "change_rate" not in row:
            return f"row incomplete: {sorted(row)}"
        return None

    _scenario_loop(repro_api, run, seconds, rec, specs, check_row, lambda unit: None, False)


def _kernel_scale(repro_api, run: Pass, seconds: float, rec) -> None:
    import numpy as np

    spec = repro_api.ScenarioSpec.from_dict(KERNEL_SCALE)
    rounds = spec.resolved_rounds()

    def check_row(k: int, row: Dict[str, Any]) -> Optional[str]:
        if row.get("activity_rounds") != float(rounds):
            return f"row covers {row.get('activity_rounds')} of {rounds} rounds"
        return None

    def check_stepped(unit: Unit) -> Optional[str]:
        if unit.ctx.trace.num_rounds != rounds:
            return f"simulated {unit.ctx.trace.num_rounds} of {rounds} rounds"
        if "mask" not in unit.capture:
            return "the run did not take the array-kernel path"
        # The final output must be an independent set on the final graph.
        edges = np.asarray(unit.capture["edges"], dtype=np.int64).reshape(-1, 2)
        present = edges[np.asarray(unit.capture["mask"], dtype=bool)]
        in_mis = np.zeros(spec.n, dtype=bool)
        members = [v for v, value in unit.ctx.algorithm.outputs().items() if value == 1]
        in_mis[np.asarray(members, dtype=np.int64)] = True
        conflicts = int(np.count_nonzero(in_mis[present[:, 0]] & in_mis[present[:, 1]]))
        if conflicts or not members:
            return f"final output has {conflicts} adjacent MIS pairs, {len(members)} members"
        return None

    _scenario_loop(repro_api, run, seconds, rec, [spec], check_row, check_stepped, True)


def _sweep_matrix(repro_api, run: Pass, seconds: float, rec) -> None:
    base = repro_api.ScenarioSpec.from_dict(SWEEP_BASE)
    seeds = tuple(unit_seed(run.seed, j) for j in range(SWEEP_SEEDS))
    spec = base.replace(seeds=seeds)
    rounds = spec.resolved_rounds()
    policy = repro_api.ExecutionPolicy(backend="process", max_workers=SWEEP_WORKERS)
    points = [
        base.with_overrides({"algorithm.name": a, "adversary": adv}).replace(seeds=seeds[:1])
        for a in SWEEP_GRID["algorithm.name"]
        for adv in SWEEP_GRID["adversary"]
    ]
    per_pass = len(points) * SWEEP_SEEDS
    run.units_per_op = per_pass

    def op(i: int) -> None:
        # Per-unit timings: every grid point on the first seed, in-process,
        # on the first few repeats (the later ones time the pooled op alone).
        # Pooled workers keep no stats, so set-up is timed here too.
        samples: List[Unit] = []
        if i < SAMPLE_REPEATS[run.workload]:
            _cold_start()
            run.attempted += len(points)
            try:
                with rec.span("sample"):
                    for point in points:
                        unit = run_unit(repro_api, point, seeds[0], None, rec)
                        unit.ctx = None
                        samples.append(unit)
            except Exception:  # noqa: BLE001
                run.fail(len(points), f"repeat {i}: {traceback.format_exc(limit=3)}")
                return
        run.attempted += per_pass
        _cold_start()
        store = _fresh_store(repro_api, run)
        try:
            started = perf_counter()
            with rec.span("op"):
                with rec.span("exec.wall"):
                    results = repro_api.sweep(spec, over=SWEEP_GRID, execution=policy)
                with rec.span("scenarios.store_write"):
                    first = [_put(store, r)[1] for r in results]
                with rec.span("scenarios.store_reput"):
                    second = [_put(store, r)[1] for r in results]
            elapsed = perf_counter() - started
        except Exception:  # noqa: BLE001
            run.fail(per_pass, f"repeat {i}: {traceback.format_exc(limit=3)}")
            return
        rows = [row for r in results for row in r.rows]
        bad: Dict[int, str] = {}
        for k in range(len(rows), per_pass):
            bad[k] = "unit missing"
        for k, row in enumerate(rows):
            if set(row) != SWEEP_ROW_KEYS or row["trace_rounds"] != float(rounds):
                bad[k] = f"row {sorted(row)}"
        for p, (put, reput) in enumerate(zip(first, second)):
            if (put, reput) != ("created", "unchanged"):
                for k in range(p * SWEEP_SEEDS, (p + 1) * SWEEP_SEEDS):
                    bad.setdefault(k, f"store statuses {put!r} then {reput!r}")
        # Backend identity: each in-process sample row equals its pooled row.
        for p, unit in enumerate(samples):
            k = p * SWEEP_SEEDS
            if k < len(rows) and rows[k] != unit.row:
                bad.setdefault(per_pass + p, "in-process row differs from the pooled row")
        run.judge(rows, bad)
        run.store_bytes = _store_bytes(store.root)
        if samples:
            run.repeats.append(Repeat(i, elapsed, [u.setup_s for u in samples], samples))
        else:
            run.repeats.append(Repeat(i, elapsed, [], []))

    closed_loop(run, seconds, op)


def _store_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*.json"))


def _put(store, result):
    key = {"kind": "scenario", "spec": result.spec.to_dict()}
    return store.put("scenarios", result.label, key, list(result.rows))


RUNNERS = {
    "paper-concat": _paper_concat,
    "kernel-scale": _kernel_scale,
    "sweep-matrix": _sweep_matrix,
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(run: Pass) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics, scaled to the reference host speed.

    Each repeat is scaled by the speed the host ran it at: ``PROBE_REF_S``
    over the median of the probes just before and just after it.  Every
    metric is first taken within one repeat, from its scaled times (the op
    time; the median set-up and round-1 time over its units; the rounds/s
    and latency percentiles over all its units' rounds 2..R), and then its
    median over the repeats is reported.  A run on the reference host
    reports raw times.
    """
    median = statistics.median
    width = PROBES_PER_REPEAT
    timed = [
        (PROBE_REF_S / median(run.probe_s[r.index * width : (r.index + 2) * width]), r)
        for r in run.repeats
    ]
    stepped = [(scale, r.stepped) for scale, r in timed if r.stepped]
    per_repeat: Dict[str, List[float]] = {
        "setup_s": [scale * median(r.setup_s) for scale, r in timed if r.setup_s],
        "first_round_s": [],
        "steady_rps": [],
        "round_ms_p50": [],
        "round_ms_p90": [],
    }
    for scale, units in stepped:
        rounds = sorted(scale * t for unit in units for t in unit.round_s)
        per_repeat["first_round_s"].append(scale * median(u.first_round_s for u in units))
        per_repeat["steady_rps"].append(len(rounds) / sum(rounds))
        per_repeat["round_ms_p50"].append(1e3 * _percentile(rounds, 0.5))
        per_repeat["round_ms_p90"].append(1e3 * _percentile(rounds, 0.9))
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    e2e = median(scale * r.op_s for scale, r in timed)
    metrics = {name: median(values) for name, values in per_repeat.items()}
    metrics.update(
        e2e_s=e2e,
        units_per_s=run.units_per_op / e2e,
        peak_rss_mb=peak_kb / 1024.0,
    )
    timed_rounds = sum(len(unit.round_s) for unit in stepped[0][1])
    samples = {
        "repeats": len(run.repeats),
        "op_s": [round(r.op_s, 4) for r in run.repeats],
        "scales": [round(scale, 4) for scale, _ in timed],
        "probe_s": [round(t, 5) for t in run.probe_s],
        "timed_units": len(run.repeats[0].setup_s or stepped[0][1]),
        "stepped_repeats": len(stepped),
        "stepped_units": len(stepped[0][1]),
        "timed_rounds": timed_rounds,
        "rounds_beyond_p90": timed_rounds - int(0.9 * timed_rounds),
    }
    return metrics, samples


def _read_events(path: Optional[str]) -> List[Dict[str, Any]]:
    if not path or not Path(path).is_file():
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def per_layer(run: Pass, rec: SpanRecorder, events: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer numbers of a traced pass: seconds and counts per op.

    Spans under the sweep-matrix sample pass count per sample pass; the
    exec and store spans of its pooled op per pooled op.
    """
    repeats = max(len(run.repeats), 1)
    totals: Dict[str, Dict[str, float]] = {}
    for kind in ("op", "sample"):
        count = sum(1 for span in rec.spans if span.name == kind)
        for name, entry in rec.subtree_totals((kind,)).items():
            slot = totals.setdefault(name, {"calls": 0.0, "seconds": 0.0, "self_s": 0.0})
            for field in slot:
                slot[field] += entry[field] / count

    def seconds(name: str) -> float:
        return totals.get(name, {}).get("seconds", 0.0)

    def calls(name: str) -> float:
        return totals.get(name, {}).get("calls", 0.0)

    rounds = [e for e in events if e.get("event") == "round"]
    frontier = sum(e["frontier"] for e in rounds)
    changed = sum(e["changed"] for e in rounds)
    composed = sum(e["composed"] for e in rounds)
    per_round = max(len(rounds), 1)
    busy, workers, chunks, fallbacks = (x / repeats for x in _exec_from_events(events))
    wall = seconds("exec.wall")
    capacity = workers * wall
    layers = {
        "dynamics.topology_s": seconds("dynamics.topology"),
        "dynamics.adversary_init_s": seconds("dynamics.adversary_init"),
        "dynamics.adversary_step_s": seconds("dynamics.adversary_step"),
        "dynamics.plan_advance_s": seconds("dynamics.plan_advance"),
        "runtime.sim_init_s": seconds("runtime.sim_init"),
        "runtime.round_self_s": totals.get("runtime.round", {}).get("self_s", 0.0),
        "runtime.frontier_nodes": frontier / per_round,
        "runtime.composed_nodes": composed / per_round,
        "runtime.changed_outputs": changed / per_round,
        "runtime.useful_frontier_ratio": changed / frontier if frontier else 0.0,
        "algorithms.compose_s": seconds("algorithms.compose"),
        "algorithms.deliver_s": seconds("algorithms.deliver"),
        "algorithms.output_s": seconds("algorithms.output"),
        "algorithms.hooks_s": seconds("algorithms.hooks"),
        "algorithms.compose_calls": calls("algorithms.compose"),
        "algorithms.deliver_calls": calls("algorithms.deliver"),
        "kernel.compose_s": seconds("kernel.compose"),
        "kernel.deliver_s": seconds("kernel.deliver"),
        "kernel.post_round_s": seconds("kernel.post_round"),
        "kernel.wake_s": seconds("kernel.wake"),
        "kernel.universe_build_s": seconds("kernel.universe_build"),
        "problems.validity_s": seconds("problems.validity"),
        "analysis.metrics_s": seconds("analysis.metrics"),
        "exec.wall_s": wall,
        "exec.unit_busy_s": busy,
        "exec.worker_idle_s": max(capacity - busy, 0.0),
        "exec.parallel_efficiency": busy / capacity if capacity else 0.0,
        "exec.chunks": chunks,
        "exec.serial_fallbacks": fallbacks,
        "scenarios.store_write_s": seconds("scenarios.store_write"),
        "scenarios.store_reput_s": seconds("scenarios.store_reput"),
        "scenarios.store_bytes": float(run.store_bytes),
        "obs.span_coverage": rec.coverage(("op", "sample")),
    }
    return layers


def _exec_from_events(events: List[Dict[str, Any]]) -> Tuple[float, float, float, float]:
    """``(unit busy seconds, workers, chunks, serial fallbacks)`` from exec events."""
    open_units: Dict[int, float] = {}
    busy = 0.0
    for event in sorted(events, key=lambda e: (e["pid"], e["seq"])):
        if event["event"] == "unit_begin":
            open_units[event["pid"]] = event["t"]
        elif event["event"] == "unit_end" and event["pid"] in open_units:
            busy += event["t"] - open_units.pop(event["pid"])
    batches = [e for e in events if e["event"] == "batch_begin"]
    workers = sum(e["workers"] for e in batches)
    chunks = sum(e["chunks"] for e in batches)
    fallbacks = sum(1 for e in events if e["event"] == "serial_fallback")
    return busy, workers, chunks, fallbacks


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, traced: bool, src: Path) -> Dict[str, Any]:
    repro_api = import_program(src)
    reference = None
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        if reference.get("definition") != definition_key():
            raise SystemExit("perfbench: reference.json is stale; re-record it")
    shutil.rmtree(WORK / "store", ignore_errors=True)
    run = Pass(workload, seed, reference)
    rec = SpanRecorder() if traced else NullRecorder()
    RUNNERS[workload](repro_api, run, seconds, rec)
    if not any(r.setup_s for r in run.repeats) or not any(r.stepped for r in run.repeats):
        raise SystemExit(f"perfbench: no op of {workload} completed: {run.problems}")
    metrics, samples = end_to_end(run)
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": metrics,
        "samples": samples,
        "params": workload_params(workload),
    }
    if traced:
        events = _read_events(os.environ.get("REPRO_TRACE"))
        result["layers"] = per_layer(run, rec, events)
        rec.dump(WORK / f"spans-{workload}.jsonl")
    shutil.rmtree(WORK / "store", ignore_errors=True)
    return result


def record_reference(src: Path) -> None:
    """Record per-unit row digests for ``DEFAULT_SEED`` through the executor itself."""
    repro_api = import_program(src)
    from repro.scenarios.executor import run_scenario_seed

    ScenarioSpec = repro_api.ScenarioSpec
    seed = unit_seed(DEFAULT_SEED)
    digests = {
        "paper-concat": [
            digest(run_scenario_seed(ScenarioSpec.from_dict(d), seed)) for d in PAPER_CONCAT
        ],
        "kernel-scale": [digest(run_scenario_seed(ScenarioSpec.from_dict(KERNEL_SCALE), seed))],
    }
    seeds = tuple(unit_seed(DEFAULT_SEED, j) for j in range(SWEEP_SEEDS))
    spec = ScenarioSpec.from_dict(SWEEP_BASE).replace(seeds=seeds)
    results = repro_api.sweep(spec, over=SWEEP_GRID, execution="serial")
    digests["sweep-matrix"] = [digest(row) for r in results for row in r.rows]
    data = {"seed": DEFAULT_SEED, "definition": definition_key(), "digests": digests}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.record_reference:
        record_reference(args.src)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, args.traced, args.src)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
