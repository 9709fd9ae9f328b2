#!/usr/bin/env python3
"""The config pipeline as a library: load → validate → run → store → diff.

Everything the ``repro`` CLI does is plain API.  This script

1. loads the committed quickstart scenario config from ``configs/``,
2. validates it (and shows the near-miss suggestions a typo would get),
3. runs it and persists the rows in a content-addressed results store,
4. reruns it to show the store is idempotent (the entry is untouched), and
5. mutates a stored row to show how ``repro diff`` catches drift.

Run with::

    python examples/run_from_config.py [store-dir]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.analysis.report import format_table
from repro.scenarios import ResultsStore, load_config, run_scenario, validate_config
from repro.scenarios.store import diff_stores

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(store_dir: str | None = None) -> int:
    config = load_config(REPO_ROOT / "configs" / "scenarios" / "quickstart-coloring.json")
    assert validate_config(config) == [], "the committed config must be clean"

    # A typo'd component name fails validation with suggestions, not a
    # lookup error buried in the executor:
    typo = config.spec.with_overrides({"algorithm.name": "dynamic-colorng"})
    from repro.scenarios import validate_spec

    for problem in validate_spec(typo):
        print("validation demo:", problem)
    print()

    workdir = Path(store_dir) if store_dir else Path(tempfile.mkdtemp(prefix="repro-store-"))
    store = ResultsStore(workdir / "reference")

    result = run_scenario(config.spec, execution="process")
    rows = [{"seed": float(s), **row} for s, row in zip(config.spec.seeds, result.rows)]
    key = {"kind": "scenario", "spec": config.spec.to_dict()}
    entry, status = store.put("scenarios", config.label, key, rows)
    print(format_table(list(entry.rows), title=f"{config.label} [{status}: {entry.path}]"))

    # Idempotent rerun: same key, same code, same rows — file untouched.
    _, status = store.put("scenarios", config.label, key, rows)
    print(f"rerun status: {status}")

    # Drift detection: a candidate store with one mutated cell.
    candidate = ResultsStore(workdir / "candidate")
    mutated = [dict(rows[0], valid_fraction=0.0), *map(dict, rows[1:])]
    candidate.put("scenarios", config.label, key, mutated)
    diff = diff_stores(store, candidate)
    print("drift detected:" if not diff.clean else "stores match:")
    print(diff.describe())
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
