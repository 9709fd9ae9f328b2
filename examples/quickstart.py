#!/usr/bin/env python3
"""Quickstart: the declarative scenario API on a churning network.

A scenario is *data*: a :class:`repro.ScenarioSpec` naming a topology family,
an adversary, an algorithm and the metrics to extract — all resolved through
the ``repro.scenarios`` registries.  This script

1. declares the paper's flagship workload (sparse random network, 1% edge
   flip churn, the combined ``DynamicColoring = Concat(SColor, DColor)``),
2. runs it over three seeds with :func:`repro.run_scenario` (the seed
   replications fan out across cores with ``execution="process"``),
3. sweeps the churn rate with :func:`repro.sweep` to show that the
   sliding-window guarantee is churn-rate independent, and
4. prints the spec's JSON form — the exact artefact you would commit to a
   config file or ship to a worker fleet.

Run with::

    python examples/quickstart.py [n] [rounds]
"""

from __future__ import annotations

import sys

from repro import ScenarioSpec, component, run_scenario, sweep
from repro.analysis.report import format_table


def main(n: int = 96, rounds: int | None = None, seed: int = 1) -> int:
    spec = ScenarioSpec(
        name="quickstart-coloring",
        n=n,
        topology=component("gnp_degree", degree=8.0),
        adversary=component("flip-churn", flip_prob=0.01),
        algorithm="dynamic-coloring",
        rounds=rounds if rounds is not None else "4*T1",
        seeds=(seed, seed + 1, seed + 2),
        metrics=(
            component("validity", problem="coloring"),
            component("stability", warmup="2*T1"),
            component("coloring-quality", graph="union"),
        ),
    )

    print(f"scenario (n={n}, window T1={spec.resolved_window()}, "
          f"{spec.resolved_rounds()} rounds, seeds {spec.seeds}):\n")
    print(spec.to_json(indent=2))
    print()

    # One scenario, three seeds, all cores.
    result = run_scenario(spec, execution="process")
    print(format_table(
        list(result.rows),
        title="per-seed rows (validity · stability · colouring quality)",
        columns=("valid_fraction", "mean_violations", "mean_changes", "change_rate",
                 "max_color", "colors_used"),
    ))
    aggregate = result.aggregate(
        mean_keys=("valid_fraction", "mean_changes", "max_color", "colors_used"),
    )
    print(format_table([aggregate], title="aggregated over seeds"))

    # The paper's claim is churn-rate independent — sweep the flip probability.
    grid = sweep(
        spec, over={"adversary.params.flip_prob": [0.001, 0.01, 0.05]}, execution="process"
    )
    sweep_rows = [
        {"flip_prob": point.overrides["adversary.params.flip_prob"]}
        | point.aggregate(mean_keys=("valid_fraction", "mean_changes"))
        for point in grid
    ]
    print(format_table(sweep_rows, title="churn-rate sweep (claim: valid every round regardless)"))

    return 0 if result.mean("valid_fraction") == 1.0 else 1


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    raise SystemExit(main(*args))
