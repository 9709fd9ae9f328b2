"""Tests of the analysis helpers (conflicts, stability, convergence, quality, sweep, report)."""

import math

import pytest

from repro.types import Interval
from repro.dynamics import generators
from repro.dynamics.topology import Topology
from repro.runtime.metrics import RoundMetrics
from repro.runtime.trace import ExecutionTrace
from repro.analysis.conflicts import conflict_resolution_times
from repro.analysis.convergence import (
    DecisionWalk,
    completion_round_for_nodes,
    first_round_all_decided,
    rounds_to_completion,
)
from repro.analysis.quality import coloring_quality, mis_quality
from repro.analysis.report import format_table, rows_to_csv
from repro.analysis.stability import (
    changes_per_round,
    output_change_counts,
    region_change_count,
    stability_summary,
)
from repro.analysis.sweep import Replication, aggregate_rows
from repro.scenarios import ScenarioResult, ScenarioSpec, component
from repro.scenarios.registry import METRICS
from helpers import record_round, simulate


def _metrics(r, changed=0):
    return RoundMetrics(r, 2, 1, 2, 2, 4, 8, changed)


def build_trace(outputs_list, topo=None, n=3):
    topo = topo if topo is not None else Topology(range(n), [(0, 1), (1, 2)])
    trace = ExecutionTrace(n, "alg", "adv")
    for i, outputs in enumerate(outputs_list):
        changed = 0 if i == 0 else sum(1 for v in outputs if outputs[v] != outputs_list[i - 1].get(v))
        record_round(trace, topo, outputs, _metrics(i + 1, changed))
    return trace


class TestConflicts:
    def test_conflict_resolution_times(self):
        outputs = [
            {0: 1, 1: 1},
            {0: 1, 1: 1},
            {0: 1, 1: 2},
        ]
        trace = build_trace(outputs, topo=Topology([0, 1], [(0, 1)]), n=2)
        results = conflict_resolution_times(trace, [(1, (0, 1))])
        assert results[0]["duration"] == 2.0 and results[0]["censored"] == 0.0
        never_resolved = build_trace([{0: 1, 1: 1}] * 3, topo=Topology([0, 1], [(0, 1)]), n=2)
        censored = conflict_resolution_times(never_resolved, [(1, (0, 1))])
        assert censored[0]["censored"] == 1.0 and censored[0]["duration"] == 3.0


class TestStability:
    def test_output_change_counts(self):
        trace = build_trace([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 1}, {0: 2, 1: 3, 2: 1}])
        counts = output_change_counts(trace)
        assert counts == {0: 1, 1: 1}

    def test_changes_per_round_matches_metrics(self):
        trace = build_trace([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 1}])
        assert changes_per_round(trace) == [0, 1]

    def test_region_change_count(self):
        trace = build_trace([{0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 1}, {0: 3, 1: 1, 2: 1}])
        assert region_change_count(trace, [0], Interval(1, 3)) == 2
        assert region_change_count(trace, [1, 2], Interval(1, 3)) == 0

    def test_stability_summary(self):
        trace = build_trace([{0: 1, 1: 1, 2: 1}] * 3 + [{0: 2, 1: 1, 2: 1}])
        summary = stability_summary(trace)
        assert summary["mean_changes"] == pytest.approx(1 / 3)
        assert summary["max_changes"] == 1.0
        assert 0 < summary["change_rate"] < 1

    def test_stability_summary_empty(self):
        trace = build_trace([{0: 1, 1: 1, 2: 1}])
        assert stability_summary(trace)["rounds"] == 0.0


class TestConvergence:
    def test_first_round_all_decided(self):
        trace = build_trace([{0: None, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}])
        assert first_round_all_decided(trace) == 2
        assert rounds_to_completion(trace) == 2
        assert rounds_to_completion(trace, start_round=2) == 1

    def test_never_completes(self):
        trace = build_trace([{0: None, 1: 1, 2: 1}] * 3)
        assert first_round_all_decided(trace) is None
        assert rounds_to_completion(trace) is None

    def test_completion_for_subset(self):
        trace = build_trace([{0: None, 1: 1, 2: None}, {0: None, 1: 1, 2: 2}])
        assert completion_round_for_nodes(trace, [1, 2]) == 2
        assert completion_round_for_nodes(trace, [0]) is None


def _run(spec, seed, delivery, retention="full"):
    ctx, sim = simulate(spec, seed, delivery, retention)
    ctx.trace = sim.run(ctx.rounds)
    assert sim.delivery == delivery
    return ctx


_STAGGERED = ScenarioSpec(
    n=40,
    algorithm="smis",
    adversary=component("flip-churn", flip_prob=0.05),
    rounds=40,
    wakeup=component("staggered", batch_size=8, interval=3),
)


class TestDecisionWalk:
    """The convergence measurements read the awake set from the recorded
    output updates: a round's output-vector keys are its awake set."""

    @pytest.mark.parametrize(
        "delivery, retention",
        [("full", "full"), ("incremental", "full"), ("kernel", "full"), ("kernel", "stats")],
    )
    def test_walk_matches_the_round_graphs(self, delivery, retention):
        trace = _run(_STAGGERED, 3, delivery, retention).trace
        walk, woke_in = DecisionWalk(trace), set()
        for r in trace.rounds():
            walk.advance()
            nodes = trace.topology(r).nodes
            outputs = trace.outputs(r)
            assert set(outputs) == nodes
            assert walk.outputs == outputs
            assert walk.decided == sum(1 for v in nodes if outputs[v] is not None)
            assert walk.all_decided == (None not in outputs.values())
            previous = trace.outputs(r - 1) if r > 1 else {}
            assert walk.changes == sum(1 for v in nodes if outputs[v] != previous.get(v))
            if len(nodes) > len(previous):
                woke_in.add(r)
        assert len(woke_in) > 1  # nodes woke in several rounds

    @staticmethod
    def _frozen(freeze_round):
        return ScenarioSpec(
            n=40,
            algorithm="smis",
            adversary=component(
                "freeze-after", inner=_STAGGERED.adversary, freeze_round=freeze_round
            ),
            rounds=70,
            wakeup=_STAGGERED.wakeup,
        )

    def test_last_wakers_of_a_batch_that_never_woke_are_nan(self):
        ctx = _run(self._frozen(9), 2, "full")  # the freeze stops the wake-ups too
        row = METRICS.get("last-wakers-convergence")(ctx, tail=8)
        assert all(math.isnan(value) for value in row.values())

    @pytest.mark.parametrize("delivery", ["full", "incremental"])
    def test_freeze_and_last_wakers_match_the_round_graphs(self, delivery):
        ctx = _run(self._frozen(16), 2, delivery)
        trace = ctx.trace

        def first(rounds, nodes_of):
            return next(
                r for r in rounds if all(trace.output_of(v, r) is not None for v in nodes_of(r))
            )

        decided = first(range(16, trace.num_rounds + 1), lambda r: trace.topology(r).nodes)
        changes = sum(
            trace.output_of(v, r) != trace.output_of(v, r - 1)
            for r in range(decided + 1, trace.num_rounds + 1)
            for v in trace.topology(r).nodes
        )
        row = METRICS.get("freeze-decision")(ctx, churn_rounds=15)
        assert row == {"rounds_after_freeze": decided - 15.0, "changes_after_decided": changes}
        batch = range(ctx.n - 8, ctx.n)
        wake = max(next(r for r in trace.rounds() if v in trace.topology(r).nodes) for v in batch)
        done = first(range(wake, trace.num_rounds + 1), lambda r: batch)
        assert METRICS.get("last-wakers-convergence")(ctx, tail=8) == {
            "last_batch_wake_round": float(wake),
            "last_batch_decided_round": float(done),
            "rounds_to_decide_after_wake": float(done - wake),
        }


class TestQuality:
    def test_coloring_quality(self, path4):
        stats = coloring_quality(path4, {0: 1, 1: 2, 2: 1, 3: 2})
        assert stats["colors_used"] == 2.0
        assert stats["uncolored"] == 0.0
        assert stats["max_degree_plus_one"] == 3.0

    def test_mis_quality(self, path4):
        stats = mis_quality(path4, {0: 1, 1: 0, 2: 1, 3: 0})
        assert stats["mis_size"] == 2.0 and stats["undecided"] == 0.0


class TestSweep:
    def test_seed_rows_aggregate(self):
        spec = ScenarioSpec(n=4, algorithm="smis", name="demo", seeds=(1, 2, 3))
        result = ScenarioResult(spec, tuple({"value": float(seed)} for seed in spec.seeds))
        replication = result.replication()
        assert replication.label == "demo"
        assert replication.mean("value") == 2.0
        assert replication.max("value") == 3.0
        assert replication.std("value") == pytest.approx(math.sqrt(2 / 3))
        row = aggregate_rows(replication, mean_keys=("value",), std_keys=("value",), max_keys=("value",), extra={"n": 5.0})
        assert row["value_mean"] == 2.0 and row["replicas"] == 3.0 and row["n"] == 5.0

    def test_nan_values_skipped(self):
        replication = Replication("x", ({"v": float("nan")}, {"v": 4.0}))
        assert replication.mean("v") == 4.0

    def test_missing_key_gives_nan(self):
        replication = Replication("x", ({"v": 1.0},))
        assert math.isnan(replication.mean("other"))


class TestReport:
    def test_format_table_alignment_and_values(self):
        rows = [{"n": 32, "value": 1.23456, "label": "abc"}, {"n": 256, "value": 7.0, "label": "d"}]
        text = format_table(rows, title="demo", precision=2)
        assert "demo" in text and "1.23" in text and "256" in text
        assert text.count("\n") >= 4

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_nan(self):
        assert "nan" in format_table([{"x": float("nan")}])

    def test_rows_to_csv(self):
        csv = rows_to_csv([{"a": 1, "b": 2.5}, {"a": 3, "b": 4.0}])
        lines = csv.strip().split("\n")
        assert lines[0] == "a,b" and len(lines) == 3

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""

    def test_quality_against_generators(self, rng_factory):
        """Smoke: quality helpers run on generated graphs without error."""
        topo = generators.gnp(20, 0.2, rng_factory.stream("q"))
        from repro.algorithms.coloring.greedy import greedy_coloring

        stats = coloring_quality(topo, greedy_coloring(topo))
        assert stats["colors_used"] <= stats["max_degree_plus_one"]
