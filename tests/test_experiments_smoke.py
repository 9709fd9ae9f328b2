"""Smoke tests for the E1–E13 experiment implementations (tiny parameters).

These do not validate the scientific claims (``repro bench`` checks each
catalog claim on benchmark-scale rows; :class:`TestClaims` checks them on the
committed full-scale rows); they pin down the row schema every experiment
returns and make sure the experiment code paths stay runnable.
"""

import math
from pathlib import Path

import pytest

from repro.analysis import experiments as E
from repro.analysis.experiments.catalog import EXPERIMENTS
from repro.analysis.report import format_table
from repro.scenarios.store import ResultsStore

COMMITTED_EXPERIMENTS = Path(__file__).resolve().parent.parent / "results" / "experiments"


def assert_rows(rows, required_keys):
    assert rows, "experiment returned no rows"
    for row in rows:
        for key in required_keys:
            assert key in row, f"missing key {key!r} in {sorted(row)}"
    # The report renderer must accept every experiment's rows.
    assert format_table(rows)


class TestColoringExperiments:
    def test_e01(self):
        rows = E.experiment_e01_coloring_convergence(sizes=(16, 32), seeds=(0,), max_round_factor=15)
        assert_rows(rows, ["n", "rounds_mean", "rounds_over_log2n", "setting"])
        assert len(rows) == 4  # two settings per size
        for row in rows:
            assert not math.isnan(row["rounds_mean"])

    def test_e02(self):
        rows = E.experiment_e02_palette_lemma(n=32, seeds=(0,), rounds=20)
        assert_rows(rows, ["setting", "colored_rate_given_no_shrink", "paper_lower_bound"])
        for row in rows:
            assert row["satisfies_bound"] == 1.0

    def test_e03(self):
        rows = E.experiment_e03_conflict_resolution(sizes=(24,), seeds=(0,), attacks_per_round=1, rounds_factor=3)
        assert_rows(rows, ["n", "window_T1", "mean_duration_mean", "max_duration_max"])

    def test_e04(self):
        rows = E.experiment_e04_tdynamic_coloring(n=24, flip_probs=(0.01,), seeds=(0,), rounds_factor=2)
        assert_rows(rows, ["flip_prob", "valid_fraction_mean", "max_color_mean"])
        assert rows[0]["valid_fraction_mean"] == 1.0


class TestMisExperiments:
    def test_e06(self):
        rows = E.experiment_e06_mis_edge_decay(n=48, seeds=(0, 1), rounds=15)
        assert_rows(rows, ["mean_two_round_ratio", "paper_upper_bound", "observations"])
        assert rows[0]["mean_two_round_ratio"] <= rows[0]["paper_upper_bound"] + 0.05

    def test_e07(self):
        rows = E.experiment_e07_mis_convergence(sizes=(16, 32), seeds=(0,), max_round_factor=15, validity_rounds_factor=2)
        assert_rows(rows, ["n", "rounds_mean", "valid_fraction_mean", "rounds_over_log2n"])

    def test_e08(self):
        rows = E.experiment_e08_smis_freeze_decision(sizes=(24,), seeds=(0,), churn_rounds=6, max_round_factor=20)
        assert_rows(rows, ["n", "rounds_after_freeze_mean", "changes_after_decided_mean"])
        assert rows[0]["changes_after_decided_mean"] == 0.0


class TestFrameworkExperiments:
    def test_e05(self):
        rows = E.experiment_e05_local_stability(n=49, seeds=(0,), rounds_factor=5, protected_radius=2)
        assert_rows(rows, ["algorithm", "changes_protected_mean", "changes_control_mean"])
        for row in rows:
            assert row["changes_protected_mean"] == 0.0

    def test_e09(self):
        rows = E.experiment_e09_baseline_comparison(n=24, seeds=(0,), rounds_factor=3)
        assert_rows(rows, ["algorithm", "valid_fraction_mean", "mean_changes_mean"])
        by_name = {row["algorithm"]: row for row in rows}
        assert by_name["dynamic-coloring"]["valid_fraction_mean"] >= by_name["restart-coloring"]["valid_fraction_mean"]

    def test_e10(self):
        rows = E.experiment_e10_adversary_sensitivity(n=24, seeds=(0,), attacks_per_round=2, max_round_factor=20)
        assert_rows(rows, ["setting", "n"])
        assert len(rows) == 3

    def test_e11(self):
        rows = E.experiment_e11_async_wakeup(n=24, seeds=(0,), rounds_factor=4)
        assert_rows(rows, ["schedule", "algorithm", "valid_fraction_mean"])
        assert len(rows) == 6

    def test_e12(self):
        rows = E.experiment_e12_message_size(sizes=(16, 64), rounds_factor=2)
        assert_rows(rows, ["algorithm", "n", "max_message_bits"])
        combined = [row for row in rows if row["algorithm"] == "dynamic-coloring"]
        singles = [row for row in rows if row["algorithm"] == "scolor"]
        assert combined[0]["max_message_bits"] > singles[0]["max_message_bits"]

    @pytest.mark.slow
    def test_e13(self):
        rows = E.experiment_e13_ablations(n=36, seeds=(0,), rounds_factor=3)
        assert_rows(rows, ["ablation", "variant"])
        by_variant = {row["variant"]: row for row in rows}
        assert by_variant["scolor"]["b1_violation_fraction_mean"] <= by_variant["scolor-no-uncolor"]["b1_violation_fraction_mean"]
        assert by_variant["dynamic-coloring"]["mean_changes_mean"] <= by_variant["coloring-no-backbone"]["mean_changes_mean"]


def committed_rows(experiment_id):
    (path,) = COMMITTED_EXPERIMENTS.glob(f"{experiment_id}-*.json")
    return [dict(row) for row in ResultsStore.load(path).rows]


class TestClaims:
    """Every catalog claim on the committed ``results/experiments`` rows."""

    @pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
    def test_claim_holds_on_committed_rows(self, experiment_id):
        assert EXPERIMENTS[experiment_id].check(committed_rows(experiment_id)) == []

    @pytest.mark.parametrize(
        "experiment_id, key, value",
        [("e07", "valid_fraction_mean", 0.5), ("e05", "changes_protected_mean", 1.0)],
    )
    def test_mutated_row_fails_naming_experiment_and_key(self, experiment_id, key, value):
        rows = committed_rows(experiment_id)
        rows[-1][key] = value
        problems = EXPERIMENTS[experiment_id].check(rows)
        assert len(problems) == 1
        assert problems[0].startswith(f"{experiment_id}: ")
        assert key in problems[0] and repr(value) in problems[0]
