"""Shared helpers for the benchmark modules.

Every benchmark regenerates one E1–E13 experiment from its *committed config*
(``configs/experiments/<id>.json``) — the same file ``repro experiments`` and
the CI drift gate execute — using the config's benchmark-scale parameter set
and title.  The seed replications and sweep points inside an experiment are
independent work units, so they run on the parallel batch executor by default
— set ``REPRO_BENCH_SERIAL=1`` to force the (row-identical) serial path.

The execution backend is selectable without touching the benchmark modules:
``REPRO_BENCH_BACKEND`` (``process`` default / ``remote``),
``REPRO_BENCH_CHUNK_SIZE`` and ``REPRO_BENCH_WORKERS``
map onto an :class:`repro.exec.ExecutionPolicy` installed for the duration of
the run — every backend produces byte-identical rows, so the regenerated
tables are the same whichever transport computed them.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Dict, List

from repro.analysis.experiments.catalog import run_experiment
from repro.analysis.report import format_table
from repro.exec import ExecutionPolicy, use_policy
from repro.scenarios.configs import ExperimentConfig, load_config

__all__ = ["CONFIGS_DIR", "RESULTS_DIR", "regenerate_from_config"]

#: The committed experiment configs the benchmarks are driven by.
CONFIGS_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs" / "experiments"

#: Directory in which every benchmark appends the table it regenerated, so the
#: experiment tables survive pytest's output capturing.
RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


def regenerate_from_config(
    benchmark, experiment_id: str, *, scale: str = "bench"
) -> List[Dict[str, float]]:
    """Run one committed experiment config under pytest-benchmark.

    The experiment is executed exactly once (``pedantic(rounds=1)``): the
    quantity of interest is the regenerated table, not the harness's wall
    time, and a single execution keeps the whole benchmark suite laptop-sized.
    The table is printed (visible with ``-s``) and appended to
    ``benchmarks/results/tables.txt``.
    """
    config = load_config(CONFIGS_DIR / f"{experiment_id}.json")
    assert isinstance(config, ExperimentConfig)
    params = config.params_for(scale)
    parallel = os.environ.get("REPRO_BENCH_SERIAL") != "1"
    chunk_size = os.environ.get("REPRO_BENCH_CHUNK_SIZE")
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    policy = ExecutionPolicy(
        backend=os.environ.get("REPRO_BENCH_BACKEND", "process" if parallel else "serial"),
        chunk_size=int(chunk_size) if chunk_size else None,
        max_workers=int(workers) if workers else None,
    )

    def _regenerate() -> List[Dict[str, float]]:
        with use_policy(policy):
            return run_experiment(experiment_id, params, parallel=parallel)

    rows = benchmark.pedantic(_regenerate, rounds=1, iterations=1)
    table = format_table(rows, title=config.title, columns=config.columns)
    print()
    print(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "tables.txt", "a", encoding="utf-8") as handle:
        handle.write(table + "\n")
    benchmark.extra_info["experiment"] = config.title
    benchmark.extra_info["config"] = str(config.path)
    benchmark.extra_info["rows"] = json.loads(json.dumps(rows, default=str))
    return rows
