"""Executor scaling: the registered backends over many-tiny-unit batches.

The workload class that motivated the ``repro.exec`` subsystem is the
*many-tiny-unit sweep*: adversary × algorithm × seed grids and
tail-statistics replication studies explode into hundreds or thousands of
``(spec, seed)`` work units that each run for milliseconds.  There, per-unit
dispatch cost — IPC, payload pickling and spec re-parsing — rivals the
simulation itself, which is why every backend dispatches same-spec chunks.

This benchmark times the three registered backends over the same unit
batches:

* ``serial`` — the in-process reference loop (and byte-identity yardstick);
* ``process`` — the chunked process pool (spec sent once per chunk, parsed
  once per worker via the spec cache);
* ``remote`` — the wire-form worker fleet on its ``loopback`` transport
  (heartbeats, deadlines and adaptive sizing included in its number).

Workloads:

* ``replication-tail`` — one tiny scenario (ring, n=8, 1 round), 1000 seed
  replications: the pattern of estimating convergence-time tails.
* ``grid-matrix`` — a registered-adversary × seed grid on n=32: the pattern
  of the ROADMAP's scenario-matrix expansion.

Every backend's rows are asserted byte-identical to ``serial`` before any
timing is reported; that identity is the gate, in both modes.  Workers are
started and warmed before the clock runs, so the numbers measure
steady-state dispatch throughput, not process start-up.

Usage::

    PYTHONPATH=src python benchmarks/bench_executor_scaling.py            # full
    PYTHONPATH=src python benchmarks/bench_executor_scaling.py --smoke    # CI gate
    PYTHONPATH=src python benchmarks/bench_executor_scaling.py --json out.json

Full mode writes ``benchmarks/results/BENCH_exec.json``; ``--smoke`` runs
small batches and writes nothing unless ``--json`` is given.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exec import build_chunks, make_backend, units_for_spec
from repro.exec.units import WorkUnit, auto_chunk_size
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.executor import run_scenario_seed
from repro.scenarios.store import canonical_json

RESULTS_PATH = pathlib.Path(__file__).resolve().parent / "results" / "BENCH_exec.json"

#: Worker count for every pooled path (identical across paths for fairness).
WORKERS = 2

#: The pooled backends timed against the serial loop.
POOLED_BACKENDS = ("process", "remote")

#: Adversaries of the grid workload (registered names, default parameters).
GRID_ADVERSARIES = (
    "static",
    "flip-churn",
    "markov-churn",
    "burst-churn",
    "edge-insertion",
    "locally-static",
)


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
    """Time every executor on ``units``; returns one result row."""
    serial_started = time.perf_counter()
    serial_rows = [run_scenario_seed(ScenarioSpec.from_dict(u.spec_dict), u.seed) for u in units]
    serial_elapsed = time.perf_counter() - serial_started
    reference = canonical_json(serial_rows)

    timings: Dict[str, float] = {"serial": len(units) / serial_elapsed}
    identical: Dict[str, bool] = {"serial": True}

    for backend in POOLED_BACKENDS:
        rows, elapsed = _run_backend(backend, units, chunk_size)
        timings[backend] = len(units) / elapsed
        identical[backend] = canonical_json(rows) == reference

    row: Dict[str, object] = {
        "workload": label,
        "units": len(units),
        "chunk_size": chunk_size or auto_chunk_size(len(units), WORKERS),
        "workers": WORKERS,
        **{f"{name}_rps": round(rate, 1) for name, rate in timings.items()},
        "identical_to_serial": identical,
    }
    print(
        f"{label:<18} units={len(units):<5} "
        + "  ".join(f"{name}={rate:7.1f} r/s" for name, rate in timings.items())
    )
    mismatched = [name for name, same in identical.items() if not same]
    if mismatched:
        raise AssertionError(f"{label}: rows differ from serial on {mismatched}")
    return row


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small batches (byte-identity gate only, no result file)",
    )
    parser.add_argument(
        "--json",
        type=pathlib.Path,
        default=None,
        help=f"output path for the result JSON (default: {RESULTS_PATH} in full mode)",
    )
    args = parser.parse_args(argv)

    # run_workload raises on any backend whose rows differ from serial.
    replications, grid_seeds = (160, 4) if args.smoke else (1000, 25)
    rows = [
        run_workload("replication-tail", units_for_spec(_replication_spec(replications))),
        run_workload("grid-matrix", _grid_units(grid_seeds)),
    ]
    out_path = args.json or (None if args.smoke else RESULTS_PATH)
    if out_path is not None:
        payload = {
            "benchmark": "executor-scaling",
            "unit": "rows/sec",
            "workers": WORKERS,
            "target": "every backend byte-identical to serial",
            "rows": rows,
        }
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out_path}")
    print(f"ok: {', '.join(POOLED_BACKENDS)} byte-identical to serial")
    return 0


if __name__ == "__main__":
    sys.exit(main(None))
