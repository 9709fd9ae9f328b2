"""The array window and both pairs' array checks against the brute-force oracle.

``DynamicGraph``'s window views, ``TDynamicSpec``'s verdicts and property
B.1 (its ``T = 1`` check) come from one
:class:`~repro.dynamics.dynamic_graph.WindowWalk` and numpy reductions; the
oracle in ``helpers`` materialises every window's ``T`` graphs and checks
each node by hand.  Random runs cover staggered wake-ups, ``T = 1``,
windows that reach ``G_0``, edges re-inserted inside a window, 32-round
checkpoint entries, start/end slices, ⊥ outputs, MIS values other than 0/1
and colours that are not ints (bools, ``2.0`` and ``numpy.int64`` among
them), on each way a round can be recorded.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.dynamics.dynamic_graph import CHECKPOINT_INTERVAL
from repro.dynamics.topology import Topology, TopologyDelta
from repro.errors import TopologyError
from repro.core.properties import verify_partial_solution_every_round
from repro.problems import TDynamicSpec, coloring_problem_pair, mis_problem_pair
from repro.runtime.metrics import RoundMetrics
from repro.runtime.trace import ExecutionTrace
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.registry import METRICS
from helpers import oracle_check_trace, simulate, windows

N = 7
#: Output values.  ``2``, ``2.0`` and ``numpy.int64(2)`` are equal: an output
#: that changes between them is not in the round's change set (the "stats"
#: replay keeps the earlier one), so every check must give them one verdict.
VALUES = (None, 0, 1, 2, 3, 9, -1, True, False, 2.5, "x", 2.0, np.int64(2), np.int64(1))
#: How a round is stored: with its graph (32-round checkpoints), as a delta
#: only (the array kernel), or as a delta plus an output update ("stats").
PATHS = ("graph", "delta", "stats")
PAIRS = {"mis": mis_problem_pair, "coloring": coloring_problem_pair}


@st.composite
def runs(draw):
    """Per round ``(topology, output update)``: nodes wake late and edges toggle."""
    length = draw(st.one_of(st.integers(1, 8), st.integers(CHECKPOINT_INTERVAL + 1, 40)))
    awake, edges, rounds = set(), set(), []
    for _ in range(length):
        awake |= draw(st.frozensets(st.integers(0, N - 1), max_size=2))
        pairs = [(u, v) for u in sorted(awake) for v in sorted(awake) if u < v]
        if pairs:
            edges ^= set(draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)))
        update = {}
        if awake:
            update = draw(
                st.dictionaries(st.sampled_from(sorted(awake)), st.sampled_from(VALUES), max_size=3)
            )
        rounds.append((Topology(awake, edges), update))
    return rounds


def _record(rounds, path):
    trace = ExecutionTrace(N, "oracle", "random", retention="stats" if path == "stats" else "full")
    previous, outputs = Topology([], []), {}
    for r, (topology, update) in enumerate(rounds, start=1):
        delta = TopologyDelta.between(previous, topology)
        changed = {v for v, value in update.items() if v not in outputs or outputs[v] != value}
        outputs = {**outputs, **update}
        metrics = RoundMetrics(r, 0, 0, 0, 0, 0, 0, 0)
        if path == "stats":
            ids = np.array(sorted(changed), dtype=np.int64)
            trace.record_stats(delta, {v: update[v] for v in changed}, metrics, ids)
        else:
            held = topology if path == "graph" else None
            trace.record(delta, outputs, metrics, frozenset(changed), topology=held)
        previous = topology
    return trace


def _summary(results):
    """``validity_summary`` recomputed from per-round results."""
    if not results:
        return {
            "rounds_checked": 0.0,
            "valid_rounds": 0.0,
            "valid_fraction": 1.0,
            "max_violations": 0.0,
            "mean_violations": 0.0,
            "constrained_rounds": 0.0,
        }
    violations = [res.num_violations for res in results]
    valid = sum(1 for res in results if res.is_valid)
    return {
        "rounds_checked": float(len(results)),
        "valid_rounds": float(valid),
        "valid_fraction": valid / len(results),
        "max_violations": float(max(violations)),
        "mean_violations": float(sum(violations) / len(violations)),
        "constrained_rounds": float(sum(1 for res in results if res.constrained_nodes > 0)),
    }


@seed(20190520)
@settings(max_examples=40, deadline=None)
@given(runs(), st.data())
def test_array_window_and_verdicts_match_the_oracle(rounds, data):
    length = len(rounds)
    sizes = sorted({1, 2, length, length + 1, data.draw(st.integers(1, length + 2))})
    start = data.draw(st.integers(1, length + 1))
    end = data.draw(st.one_of(st.none(), st.integers(start - 2, length + 2)))
    for path in PATHS:
        trace = _record(rounds, path)
        graph = trace.graph
        for T in sizes:
            for r, intersection, union in windows(graph, T):
                assert graph.intersection_graph(r, T) == intersection, (path, T, r)
                assert graph.union_graph(r, T) == union, (path, T, r)
            for name, make_pair in PAIRS.items():
                spec = TDynamicSpec(make_pair(), T)
                for lo, hi in ((1, None), (start, end)):
                    expected = oracle_check_trace(spec.pair, T, trace, lo, hi)
                    assert spec.check_trace(trace, start_round=lo, end_round=hi) == expected, (
                        path,
                        name,
                        T,
                        lo,
                        hi,
                    )
                    summary = spec.validity_summary(trace, start_round=lo, end_round=hi)
                    assert summary == _summary(expected)
                for r in (1, length):
                    assert [spec.check_round(graph, trace.outputs(r), r)] == (
                        oracle_check_trace(spec.pair, T, trace, r, r)
                    )
        for name, make_pair in PAIRS.items():  # B.1: the oracle's T = 1 verdicts, ⊥ allowed
            pair = make_pair()
            for lo in (1, start):
                expected = [
                    f"round {res.round_index}: partial-solution violations at nodes {bad[:10]}"
                    for res in oracle_check_trace(pair, 1, trace, lo)
                    if (bad := sorted({*res.packing_violations, *res.covering_violations}))
                ]
                assert verify_partial_solution_every_round(trace, pair, start_round=lo) == (
                    expected
                ), (path, name, lo)


def test_start_before_round_one_is_rejected():
    trace = _record([(Topology([0, 1], [(0, 1)]), {0: 1})], "delta")
    with pytest.raises(TopologyError, match="round 0 has not been recorded"):
        TDynamicSpec(mis_problem_pair(), 1).check_trace(trace, start_round=0)
    assert TDynamicSpec(mis_problem_pair(), 1).check_trace(trace, start_round=2) == []


@pytest.mark.parametrize("delivery", ["full", "kernel"])
def test_mis_edge_decay_matches_the_oracle(delivery):
    """The metric's one walk counts the edges of the intersection over
    ``[1, r]`` between nodes still undecided after round ``r - 1``."""
    spec = ScenarioSpec(
        n=40,
        algorithm="dmis",
        adversary=component("flip-churn", flip_prob=0.05),
        rounds=36,
        delivery=delivery,
    )
    ctx, sim = simulate(spec, 2, delivery)
    ctx.trace = sim.run(ctx.rounds)
    trace = ctx.trace
    counts = []
    for r in range(1, trace.num_rounds + 1):
        ((_, intersection, _),) = windows(trace.graph, r, r, r)
        previous = trace.outputs(r - 1) if r > 1 else {}
        undecided = {v for v in intersection.nodes if previous.get(v) is None}
        counts.append(len(intersection.induced_edges(undecided)))
    ratios = [counts[i + 2] / counts[i] for i in range(len(counts) - 2) if counts[i] >= 4]
    row = METRICS.get("mis-edge-decay")(ctx)
    assert row["ratio_sum"] == float(sum(ratios)) and row["ratio_count"] == len(ratios) > 0
    assert row["initial_edges"] == counts[0] > 0
