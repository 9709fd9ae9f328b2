"""Path benchmark: every interchangeable execution path, one harness, one row schema.

The repo answers the paper's "frequent but local changes" regime with a
chain of interchangeable round paths, each step justified by a throughput
row here:

* ``full`` — topology deltas, every node composed and delivered each round;
* ``incremental`` — dirty-set delivery (quiescent nodes skipped);
* ``kernel`` — the array-native round kernel over CSR adjacency.

``GROUPS`` is the comparison table: each group names the paths it
compares, its algorithms, the expected degree of the Gnp base graph, the
sizes, the Markov churn rates and its gates.  Every timed path is first
byte-compared against the ``full`` path's trace rows; then the paths are
timed back to back in pairs, ``<path>_rps`` is the best of the pairs and
``speedup`` the median of the per-pair ratios (second path over first).
The ``scale`` group times the kernel alone at n=10^5..10^6, where the
python paths would need hours; its rows gate completion (and, in smoke
mode, a throughput floor and a peak-RSS ceiling).

The ``concat`` group times the paper's own ``Concat`` combiners of
Theorem 1.1 (DynamicColoring, DynamicMIS) on ``full``, the path every
combiner has; a group's ``combiners`` time the same scenario on the group's
last path (``kernel/dynamic-coloring`` and ``kernel/dynamic-mis``: the
stacked Concat kernels).  Each
run goes through the executor's ``run_scenario_seed`` with a cold topology
cache, and every timed run's row must be byte-identical to an untimed
reference run's row on ``full``.  These rows report ``e2e_s`` (wall time of
the whole unit, setup and metrics included) and ``<path>_rps`` (rounds over
the executor's own round-loop phase); they have no speed gate.

The ``exec`` group times the execution backends (``serial`` / ``process``
/ ``remote``) over many-tiny-unit batches; every backend's rows must be
byte-identical to ``serial`` before any timing is reported.

Every row carries the keys of :func:`row_keys`: ``workload``
(``<group>/<name>``), ``paths``, ``algorithm``, ``n``, ``rounds``,
``churn_prob``, ``units``, ``e2e_s``, one ``<path>_rps`` per path in
``paths`` and ``speedup``; a key that does not apply is ``null``.

Usage::

    PYTHONPATH=src python benchmarks/bench_paths.py            # full grid
    PYTHONPATH=src python benchmarks/bench_paths.py --smoke    # CI gates
    PYTHONPATH=src python benchmarks/bench_paths.py --json out.json
    PYTHONPATH=src python benchmarks/bench_paths.py --group kernel

Full mode writes ``benchmarks/results/BENCH.json``; ``--smoke`` runs small
sizes and writes nothing unless ``--json`` is given.  ``--group G`` runs
group ``G`` alone and replaces only its rows in the output file, leaving
every other row as it was.  The file's ``hosts`` object names, per group,
the host that last measured it (:func:`host_description`); a group measured
before hosts were recorded has no entry.  Every mode exits 1 when a gate fails and raises
on any identity mismatch.
"""

from __future__ import annotations

import argparse
import fnmatch
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.coloring.basic_static import BasicColoring
from repro.algorithms.coloring.dcolor import DColor
from repro.algorithms.coloring.scolor import SColor
from repro.algorithms.mis.dmis import DMis
from repro.algorithms.mis.smis import SMis
from repro.dynamics import generators
from repro.dynamics.adversaries.random_churn import ChurnAdversary
from repro.dynamics.churn import MarkovEdgeChurn
from repro.exec import build_chunks, make_backend, units_for_spec
from repro.exec.cache import topology_cache_clear
from repro.exec.stats import UNIT_ROUNDS, collect_stats
from repro.exec.units import WorkUnit, auto_chunk_size
from repro.runtime.algorithm import DistributedAlgorithm
from repro.runtime.simulator import Simulator
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.executor import run_scenario_seed
from repro.scenarios.store import canonical_json

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / "results" / "BENCH.json"


class NullAlgorithm(DistributedAlgorithm):
    """Constant-message pure algorithm: isolates engine cost from algorithm cost."""

    name = "null"
    message_stability = "pure"

    def on_wake(self, v):
        pass

    def compose(self, v):
        return None

    def compose_fingerprint(self, v):
        return None

    def deliver(self, v, inbox):
        pass

    def output(self, v):
        return 0


ALGORITHMS = {
    "null": NullAlgorithm,
    "basic-coloring": BasicColoring,
    "scolor": SColor,
    "smis": SMis,
    "dcolor": DColor,
    "dmis": DMis,
}


@dataclass(frozen=True)
class Size:
    label: str
    n: int
    rounds: int
    retention: str = "full"


@dataclass(frozen=True)
class Churn:
    label: str
    prob: float
    #: timed pairs per cell, (full mode, smoke)
    pairs: Tuple[int, int]
    #: the algorithms timed at this rate (``None``: all of the group's)
    algorithms: Optional[Tuple[str, ...]] = None


#: ``(workload pattern, row field, minimum)``; the pattern is an fnmatch
#: over the row name inside its group and must match at least one row.
Gate = Tuple[str, str, float]


@dataclass(frozen=True)
class Group:
    name: str
    paths: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    degree: float
    sizes: Tuple[Size, ...]
    smoke_sizes: Tuple[Size, ...]
    churn: Tuple[Churn, ...]
    gates: Tuple[Gate, ...]
    smoke_gates: Tuple[Gate, ...]
    #: row name from ``{algorithm}``, ``{size}`` and ``{churn}``
    name_fmt: str
    #: smoke-mode peak-RSS ceiling (MiB), read right after the group's rows
    smoke_rss_mib: Optional[float] = None
    #: ``Concat`` combiners timed on the group's last path (see ``run_concat``)
    combiners: Tuple[str, ...] = ()


GROUPS = (
    # dirty-set delivery: sparse churn (~1-2 % of nodes touched) is the
    # regime it exists for; dense churn bounds its bookkeeping overhead,
    # so dense cells get more pairs to cancel host drift
    Group(
        name="delivery",
        paths=("full", "incremental"),
        algorithms=("null", "smis"),
        degree=8.0,
        sizes=(Size("medium", 800, 300), Size("large", 2000, 150)),
        smoke_sizes=(Size("small", 64, 150), Size("medium", 128, 100)),
        churn=(Churn("sparse", 0.002, (4, 3)), Churn("dense", 0.2, (7, 5))),
        gates=(("null-large-sparse", "speedup", 3.0), ("*-dense", "speedup", 0.95)),
        smoke_gates=(("*-sparse", "speedup", 1.0),),
        name_fmt="{algorithm}-{size}-{churn}",
    ),
    # the array kernel on a denser base graph (per-inbox python cost is
    # what it vectorises away); the sparse guard needs one algorithm only
    Group(
        name="kernel",
        paths=("incremental", "kernel"),
        algorithms=("basic-coloring", "scolor", "smis", "dcolor", "dmis"),
        degree=12.0,
        sizes=(Size("", 2000, 300),),
        smoke_sizes=(Size("", 96, 60),),
        churn=(
            Churn("sparse", 0.002, (3, 3), algorithms=("smis",)),
            Churn("dense", 0.2, (3, 3)),
        ),
        gates=(("*-dense", "speedup", 10.0), ("*-sparse", "speedup", 0.95)),
        smoke_gates=(("*-dense", "speedup", 1.0),),
        name_fmt="{algorithm}-{churn}",
        combiners=("dynamic-coloring", "dynamic-mis"),
    ),
    # completion rows only the kernel can finish; the 10^6 row (and the
    # smoke row) keep O(#changes) trace state under "stats" retention
    Group(
        name="scale",
        paths=("kernel",),
        algorithms=("smis",),
        degree=12.0,
        sizes=(Size("100k", 100_000, 30), Size("1m", 1_000_000, 5, "stats")),
        smoke_sizes=(Size("100k", 100_000, 10, "stats"),),
        churn=(Churn("dense", 0.2, (1, 1)),),
        gates=(),
        smoke_gates=(("*", "kernel_rps", 2.0),),
        name_fmt="{algorithm}-{churn}-{size}",
        smoke_rss_mib=2048,
    ),
)

#: The concat group: the combiners, ``(full-mode n, smoke n)``, the flip
#: churn rate and the timed runs per row ``(full mode, smoke)``.
CONCAT_ALGORITHMS = ("dynamic-coloring", "dynamic-mis")
CONCAT_N = (512, 64)
CONCAT_FLIP_PROB = 0.01
CONCAT_REPEATS = (3, 2)

#: exec workloads: ``name -> (full-mode size, smoke size)``; the size is
#: the seed count for ``replication-tail``, seeds per adversary for
#: ``grid-matrix``.
EXEC_WORKLOADS = {"replication-tail": (1000, 160), "grid-matrix": (25, 4)}

#: worker count for every pooled backend (identical for fairness)
WORKERS = 2

#: the backends timed against the serial loop
POOLED_BACKENDS = ("process", "remote")

#: adversaries of the grid workload (registered names, default parameters)
GRID_ADVERSARIES = (
    "static",
    "flip-churn",
    "markov-churn",
    "burst-churn",
    "edge-insertion",
    "locally-static",
)


def row_keys(paths: Sequence[str]) -> List[str]:
    """The key set of a row timing ``paths``, in file order."""
    return [
        "workload",
        "paths",
        "algorithm",
        "n",
        "rounds",
        "churn_prob",
        "units",
        "e2e_s",
        *(f"{path}_rps" for path in paths),
        "speedup",
    ]


def _row(workload: str, rates: Dict[str, float], **fields) -> Dict[str, object]:
    row: Dict[str, object] = dict.fromkeys(row_keys(list(rates)))
    row.update(workload=workload, paths=list(rates), **fields)
    row.update({f"{path}_rps": round(rate, 2) for path, rate in rates.items()})
    if row["speedup"] is not None:
        row["speedup"] = round(row["speedup"], 2)
    return row


@dataclass(frozen=True)
class Cell:
    workload: str
    algorithm: str
    size: Size
    churn: Churn


def cells(group: Group, smoke: bool) -> Iterator[Cell]:
    """The group's workloads, in file order."""
    for algorithm in group.algorithms:
        for size in group.smoke_sizes if smoke else group.sizes:
            for churn in group.churn:
                if churn.algorithms is not None and algorithm not in churn.algorithms:
                    continue
                name = group.name_fmt.format(
                    algorithm=algorithm, size=size.label, churn=churn.label
                )
                yield Cell(f"{group.name}/{name}", algorithm, size, churn)


def group_workloads(group: str, smoke: bool = False) -> List[str]:
    """The workloads of group ``group``, in file order."""
    if group == "concat":
        return [f"concat/{algorithm}" for algorithm in CONCAT_ALGORITHMS]
    if group == "exec":
        return [f"exec/{name}" for name in EXEC_WORKLOADS]
    (found,) = [g for g in GROUPS if g.name == group]
    names = [cell.workload for cell in cells(found, smoke)]
    return names + [f"{group}/{algorithm}" for algorithm in found.combiners]


#: every group, in file order
GROUP_NAMES = tuple(group.name for group in GROUPS) + ("concat", "exec")


def workload_names(smoke: bool = False) -> List[str]:
    """Every workload the harness writes, in file order."""
    return [name for group in GROUP_NAMES for name in group_workloads(group, smoke)]


def _run(
    algorithm: str,
    n: int,
    degree: float,
    churn_prob: float,
    rounds: int,
    seed: int,
    path: str,
    retention: str = "full",
):
    """One timed run on ``path``; returns (rounds/sec, trace)."""
    base = generators.gnp(n, min(1.0, degree / max(n - 1, 1)), np.random.default_rng(seed))
    adversary = ChurnAdversary(
        n,
        MarkovEdgeChurn(base, p_off=churn_prob, p_on=churn_prob),
        np.random.default_rng(seed + 1),
    )
    sim = Simulator(
        n=n,
        algorithm=ALGORITHMS[algorithm](),
        adversary=adversary,
        seed=seed,
        trace_retention=retention,
        delivery=path,
    )
    start = time.perf_counter()
    sim.run(rounds)
    elapsed = time.perf_counter() - start
    if sim.trace.num_rounds != rounds:
        raise AssertionError(
            f"{algorithm} on {path} at n={n} stopped early: {sim.trace.num_rounds}/{rounds} rounds"
        )
    return rounds / elapsed, sim.trace


def _trace_rows(trace) -> List[tuple]:
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


def run_cell(group: Group, cell: Cell, smoke: bool, seed: int = 1) -> Dict[str, object]:
    """Verify every path of ``cell`` against ``full``, then time the pairs."""
    size, churn = cell.size, cell.churn
    args = (cell.algorithm, size.n, group.degree, churn.prob, size.rounds, seed)
    if len(group.paths) > 1:
        reference = _trace_rows(_run(*args, "full")[1])
        for path in group.paths:
            if path != "full" and _trace_rows(_run(*args, path)[1]) != reference:
                raise AssertionError(f"{cell.workload}: {path} trace differs from full")
        del reference
    best = dict.fromkeys(group.paths, 0.0)
    ratios = []
    for _ in range(churn.pairs[smoke]):
        pair = {}
        for path in group.paths:
            # a live multi-hundred-round trace inflates GC pressure enough
            # to skew the next leg: release and collect before timing
            gc.collect()
            pair[path] = _run(*args, path, size.retention)[0]
            best[path] = max(best[path], pair[path])
        if len(group.paths) > 1:
            ratios.append(pair[group.paths[1]] / pair[group.paths[0]])
    gc.collect()
    row = _row(
        cell.workload,
        best,
        algorithm=cell.algorithm,
        n=size.n,
        rounds=size.rounds,
        churn_prob=churn.prob,
        speedup=statistics.median(ratios) if ratios else None,
    )
    print(
        f"{cell.workload:<32} n={size.n:<7} "
        + "  ".join(f"{path}={rate:9.2f} r/s" for path, rate in best.items())
        + (f"  speedup={row['speedup']:.2f}x" if ratios else "")
    )
    return row


def host_description() -> str:
    """The measuring host in one line: CPU model, vCPUs, Python and numpy versions."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (
        f"{model}, {os.cpu_count()} vCPUs, Python {platform.python_version()}, "
        f"numpy {np.__version__}"
    )


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / 1024.0 if sys.platform != "darwin" else rss / (1024.0 * 1024.0)


def _check_gates(rows: List[Dict[str, object]], gates: Sequence[Gate], group: str) -> List[str]:
    failures = []
    named = {str(row["workload"]).split("/", 1)[1]: row for row in rows}
    for pattern, field, minimum in gates:
        matched = [name for name in named if fnmatch.fnmatchcase(name, pattern)]
        if not matched:
            failures.append(f"{group}: gate {pattern!r} matched no workload")
        for name in matched:
            value = named[name][field]
            if not isinstance(value, (int, float)) or value < minimum:
                failures.append(f"{group}/{name}: {field} {value} < {minimum}")
    return failures


def _concat_spec(algorithm: str, n: int, path: str = "full") -> ScenarioSpec:
    """A Concat combiner for ``4*T1`` rounds under flip churn, on ``path``."""
    problem = "coloring" if algorithm == "dynamic-coloring" else "mis"
    return ScenarioSpec(
        n=n,
        topology=component("gnp_degree", degree=8),
        algorithm=algorithm,
        adversary=component("flip-churn", flip_prob=CONCAT_FLIP_PROB),
        rounds="4*T1",
        delivery=path,
        metrics=(component("validity", problem=problem), component("stability")),
        name=f"concat/{algorithm}",
    )


def run_concat(algorithm: str, smoke: bool, seed: int = 1, path: str = "full") -> Dict[str, object]:
    """Time one combiner end to end on ``path``; every run's row must match ``full``'s."""
    spec = _concat_spec(algorithm, CONCAT_N[smoke], path)
    workload = f"{'concat' if path == 'full' else path}/{algorithm}"
    topology_cache_clear()
    reference = canonical_json(run_scenario_seed(spec.replace(delivery="full"), seed))
    rounds = spec.resolved_rounds()
    e2e: List[float] = []
    best = 0.0
    for _ in range(CONCAT_REPEATS[smoke]):
        topology_cache_clear()
        gc.collect()
        with collect_stats() as stats:
            started = time.perf_counter()
            row = run_scenario_seed(spec, seed)
            e2e.append(time.perf_counter() - started)
        if canonical_json(row) != reference:
            raise AssertionError(f"{workload}: row differs from the full path's reference run")
        best = max(best, rounds / stats.seconds(UNIT_ROUNDS))
    row = _row(
        workload,
        {path: best},
        algorithm=algorithm,
        n=spec.n,
        rounds=rounds,
        churn_prob=CONCAT_FLIP_PROB,
        e2e_s=round(statistics.median(e2e), 3),
    )
    print(f"{workload:<32} n={spec.n:<7} {path}={best:9.2f} r/s  e2e={row['e2e_s']:.3f} s")
    return row


def _replication_spec(n_seeds: int) -> ScenarioSpec:
    """The many-tiny-unit workload: 1-round ring scenarios, one per seed."""
    return ScenarioSpec(
        n=8,
        topology="ring",
        algorithm="ghaffari-mis",
        adversary="static",
        rounds=1,
        seeds=tuple(range(n_seeds)),
        metrics=(component("trace-summary"),),
        name="replication-tail",
    )


def _grid_units(seeds_per_point: int) -> List[WorkUnit]:
    """The adversary-matrix workload: one spec per registered adversary."""
    base = ScenarioSpec(
        n=32,
        topology="gnp_degree",
        algorithm="dynamic-coloring",
        rounds="T1",
        seeds=tuple(range(seeds_per_point)),
        metrics=(component("validity", problem="coloring"),),
        name="grid-matrix",
    )
    units: List[WorkUnit] = []
    for adversary in GRID_ADVERSARIES:
        units.extend(units_for_spec(base.with_overrides({"adversary.name": adversary})))
    return units


def _run_backend(
    name: str, units: Sequence[WorkUnit], chunk_size: Optional[int]
) -> Tuple[List[Dict], float]:
    """One registered backend over ``units``, warm, rows in batch order."""
    chunks = build_chunks(units, chunk_size or auto_chunk_size(len(units), WORKERS))
    backend = make_backend(name, WORKERS)
    with backend:
        warm = build_chunks(units[:WORKERS], 1)  # exercise import + spec cache
        for _ in backend.submit_batch(warm):
            pass
        rows: List[Optional[Dict]] = [None] * len(units)
        started = time.perf_counter()
        for index, chunk_rows in backend.submit_batch(chunks):
            chunk = chunks[index]
            rows[chunk.start : chunk.start + len(chunk_rows)] = chunk_rows
        elapsed = time.perf_counter() - started
    return rows, elapsed


def run_workload(
    label: str, units: Sequence[WorkUnit], *, chunk_size: Optional[int] = None
) -> Dict[str, object]:
    """Time every backend on ``units``; returns one ``exec/<label>`` row.

    Workers are started and warmed before the clock runs, so the numbers
    measure steady-state dispatch throughput, not process start-up.
    """
    serial_started = time.perf_counter()
    serial_rows = [run_scenario_seed(ScenarioSpec.from_dict(u.spec_dict), u.seed) for u in units]
    serial_elapsed = time.perf_counter() - serial_started
    reference = canonical_json(serial_rows)

    rates: Dict[str, float] = {"serial": len(units) / serial_elapsed}
    for backend in POOLED_BACKENDS:
        rows, elapsed = _run_backend(backend, units, chunk_size)
        if canonical_json(rows) != reference:
            raise AssertionError(f"exec/{label}: {backend} rows differ from serial")
        rates[backend] = len(units) / elapsed
    print(
        f"{'exec/' + label:<32} units={len(units):<5} "
        + "  ".join(f"{name}={rate:7.1f} u/s" for name, rate in rates.items())
    )
    return _row(f"exec/{label}", rates, units=len(units))


def run_group(name: str, smoke: bool) -> Tuple[List[Dict[str, object]], List[str]]:
    """The rows and gate failures of group ``name``."""
    if name == "concat":
        return [run_concat(algorithm, smoke) for algorithm in CONCAT_ALGORITHMS], []
    if name == "exec":
        replications = EXEC_WORKLOADS["replication-tail"][smoke]
        grid_seeds = EXEC_WORKLOADS["grid-matrix"][smoke]
        return [
            run_workload("replication-tail", units_for_spec(_replication_spec(replications))),
            run_workload("grid-matrix", _grid_units(grid_seeds)),
        ], []
    (group,) = [g for g in GROUPS if g.name == name]
    rows = [run_cell(group, cell, smoke) for cell in cells(group, smoke)]
    rows += [run_concat(algorithm, smoke, path=group.paths[-1]) for algorithm in group.combiners]
    failures: List[str] = []
    if smoke and group.smoke_rss_mib is not None:
        peak = _peak_rss_mib()
        print(f"{group.name}: peak RSS {peak:.0f} MiB")
        if peak > group.smoke_rss_mib:
            failures.append(f"{group.name}: peak RSS {peak:.0f} MiB > {group.smoke_rss_mib} MiB")
    failures += _check_gates(rows, group.smoke_gates if smoke else group.gates, group.name)
    return rows, failures


def run_all(smoke: bool) -> Tuple[List[Dict[str, object]], List[str]]:
    """Every row and every gate failure of one mode."""
    rows: List[Dict[str, object]] = []
    failures: List[str] = []
    for name in GROUP_NAMES:
        group_rows, group_failures = run_group(name, smoke)
        rows += group_rows
        failures += group_failures
    return rows, failures


def merge_group(
    previous: Sequence[Dict[str, object]], rows: Sequence[Dict[str, object]], smoke: bool
) -> List[Dict[str, object]]:
    """``previous`` with one group's rows replaced by ``rows``, in file order."""
    by_name = {row["workload"]: row for row in previous}
    by_name.update({row["workload"]: row for row in rows})
    missing = [name for name in workload_names(smoke) if name not in by_name]
    if missing:
        raise SystemExit(f"--group: the output file lacks rows {missing}; run every group")
    return [by_name[name] for name in workload_names(smoke)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes and the CI gates; writes no file"
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        help=f"output path for the result JSON (default: {RESULTS_PATH} in full mode)",
    )
    parser.add_argument(
        "--group",
        choices=GROUP_NAMES,
        default=None,
        help="run one group and replace only its rows in the output file",
    )
    args = parser.parse_args(argv)

    if args.group is None:
        rows, failures = run_all(args.smoke)
    else:
        rows, failures = run_group(args.group, args.smoke)
    out_path = args.json or (None if args.smoke else RESULTS_PATH)
    if out_path is not None:
        measured = GROUP_NAMES if args.group is None else (args.group,)
        hosts = {name: host_description() for name in measured}
        if args.group is not None and out_path.exists():
            previous = json.loads(out_path.read_text(encoding="utf-8"))
            rows = merge_group(previous["rows"], rows, args.smoke)
            hosts = {**previous.get("hosts", {}), **hosts}
        payload = {
            "benchmark": "paths",
            "unit": "<path>_rps: rounds/sec on round paths, units/sec on exec backends; "
            "e2e_s: seconds per unit, setup and metrics included",
            "hosts": {name: hosts[name] for name in GROUP_NAMES if name in hosts},
            "rows": rows,
        }
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out_path}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"ok: {len(rows)} workloads, every path identical to its reference, gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
