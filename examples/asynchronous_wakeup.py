#!/usr/bin/env python3
"""Asynchronous wake-up: sensor nodes joining a network over time.

Section 2 of the paper models gradual deployment by a growing awake-node set
``V_r``; Section 7.2 stresses that all presented algorithms use a single round
type precisely so that late-waking nodes can simply start executing without a
global clock.  This example deploys a sensor field in batches — declared as a
``staggered`` wake-up component on the scenario spec — lets the links churn
mildly, and runs ``dynamic-coloring`` to assign the sensors' TDMA slots.

It reports the sliding-window validity and when the last-deployed batch
converged to a stable output (the ``last-wakers-convergence`` metric).

Run with::

    python examples/asynchronous_wakeup.py [n] [rounds]
"""

from __future__ import annotations

import sys

from repro import ScenarioSpec, component, run_scenario
from repro.analysis.report import format_table


def main(n: int = 96, rounds: int | None = None, seed: int = 3) -> int:
    spec = ScenarioSpec(
        n=n,
        name="dynamic-coloring (TDMA slots)",
        topology=component("random_geometric", radius=0.2),
        adversary=component("flip-churn", flip_prob=0.01),
        wakeup=component("staggered", batch_size=8, interval=3),
        algorithm="dynamic-coloring",
        rounds=rounds if rounds is not None else "6*T1",
        seeds=(seed,),
        metrics=(
            component("validity", problem="coloring"),
            component("last-wakers-convergence", tail=8),
        ),
    )
    row = run_scenario(spec).rows[0]
    rows = [
        {
            "algorithm": spec.name,
            "valid_fraction": row["valid_fraction"],
            "last_batch_wake_round": row["last_batch_wake_round"],
            "last_batch_decided_round": row["last_batch_decided_round"],
            "rounds_to_decide_after_wake": row["rounds_to_decide_after_wake"],
        }
    ]

    print(f"staggered deployment of {n} sensors (8 per batch, every 3 rounds), "
          f"window T1={spec.resolved_window()}, {spec.resolved_rounds()} rounds\n")
    print(format_table(rows, title="guarantees under asynchronous wake-up"))
    print("Nodes awake for fewer than T1 rounds are unconstrained by the sliding-window\n"
          "definition (Definition 2.1), which is why validity stays at 1 even while batches join.")
    return 0


if __name__ == "__main__":
    args = [int(a) for a in sys.argv[1:3]]
    raise SystemExit(main(*args))
