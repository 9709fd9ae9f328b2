"""Tests of the trace-based property verifiers (A.1/B.1/B.2, T-dynamic, static intervals)."""

import pytest

from repro.errors import VerificationError
from repro.types import Interval
from repro.dynamics.topology import Topology
from repro.problems import coloring_problem_pair
from repro.runtime.metrics import RoundMetrics
from repro.runtime.trace import ExecutionTrace
from repro.core.properties import (
    find_static_intervals,
    verify_extension,
    verify_locally_static,
    verify_never_retracts,
    verify_partial_solution_every_round,
    verify_t_dynamic,
)
from helpers import record_round


def _metrics(r):
    return RoundMetrics(r, 0, 0, 0, 0, 0, 0, 0)


def _trace(outputs_per_round, topologies=None, n=4):
    trace = ExecutionTrace(n, "alg", "adv")
    default_topo = Topology(range(n), [(0, 1), (1, 2)])
    for i, outputs in enumerate(outputs_per_round):
        topo = topologies[i] if topologies else default_topo
        record_round(trace, topo, outputs, _metrics(i + 1))
    return trace


class TestExtensionAndRetraction:
    def test_extension_preserved(self):
        trace = _trace([{0: 5, 1: None, 2: None, 3: None}, {0: 5, 1: 2, 2: None, 3: None}])
        assert verify_extension(trace, {0: 5}) == []

    def test_extension_violation_detected(self):
        trace = _trace([{0: 7, 1: None, 2: None, 3: None}])
        problems = verify_extension(trace, {0: 5})
        assert len(problems) == 1 and "node 0" in problems[0]

    def test_no_input_is_trivially_fine(self):
        trace = _trace([{0: 1, 1: 1, 2: 1, 3: 1}])
        assert verify_extension(trace, None) == []

    def test_never_retracts(self):
        good = _trace([{0: None, 1: 1, 2: None, 3: None}, {0: 2, 1: 1, 2: None, 3: None}])
        assert verify_never_retracts(good) == []
        bad = _trace([{0: 1, 1: 1, 2: None, 3: None}, {0: 2, 1: 1, 2: None, 3: None}])
        assert len(verify_never_retracts(bad)) == 1


class TestPartialSolutionEveryRound:
    def test_detects_conflicts(self):
        pair = coloring_problem_pair()
        good = _trace([{0: 1, 1: 2, 2: 1, 3: None}])
        assert verify_partial_solution_every_round(good, pair) == []
        bad = _trace([{0: 1, 1: 1, 2: 2, 3: None}])
        assert len(verify_partial_solution_every_round(bad, pair)) == 1


class TestStaticIntervals:
    def test_full_trace_static(self):
        trace = _trace([{0: 1, 1: 1, 2: 1, 3: 1}] * 4)
        assert find_static_intervals(trace, 0, alpha=2) == [Interval(1, 4)]

    def test_change_splits_interval(self):
        stable = Topology(range(4), [(0, 1), (1, 2)])
        changed = Topology(range(4), [(0, 1), (1, 2), (0, 2)])
        trace = _trace(
            [{0: 1, 1: 1, 2: 1, 3: 1}] * 4,
            topologies=[stable, stable, changed, changed],
        )
        assert find_static_intervals(trace, 0, alpha=1) == [Interval(1, 2), Interval(3, 4)]
        # Node 3 is isolated: its ball never changes.
        assert find_static_intervals(trace, 3, alpha=1) == [Interval(1, 4)]

    def test_sleeping_rounds_excluded(self):
        awake_later = [Topology([0, 1], []), Topology([0, 1, 2], []), Topology([0, 1, 2], [])]
        trace = _trace(
            [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}],
            topologies=awake_later,
            n=3,
        )
        assert find_static_intervals(trace, 2, alpha=1) == [Interval(2, 3)]


class TestLocallyStaticVerification:
    def test_stable_output_passes(self):
        trace = _trace([{0: 1, 1: 2, 2: 1, 3: 1}] * 6)
        reports = verify_locally_static(trace, alpha=2, grace=2)
        assert reports and all(report.stabilised for report in reports)

    def test_changing_output_fails(self):
        rounds = [{0: r, 1: 2, 2: 1, 3: 1} for r in range(1, 7)]
        trace = _trace(rounds)
        reports = verify_locally_static(trace, alpha=2, grace=2, nodes=[0])
        assert reports and not reports[0].stabilised
        assert reports[0].changes_after_grace > 0

    def test_bottom_output_fails(self):
        trace = _trace([{0: None, 1: 2, 2: 1, 3: 1}] * 6)
        reports = verify_locally_static(trace, alpha=2, grace=2, nodes=[0])
        assert reports and not reports[0].stabilised

    def test_short_intervals_skipped(self):
        trace = _trace([{0: 1, 1: 1, 2: 1, 3: 1}] * 3)
        assert verify_locally_static(trace, alpha=2, grace=5, nodes=[0]) == []


class TestTDynamicVerification:
    def test_reports_and_raises(self):
        trace = _trace([{0: 1, 1: 1, 2: 2, 3: 1}])
        pair = coloring_problem_pair()
        problems = verify_t_dynamic(trace, pair, T=1)
        assert len(problems) == 1
        with pytest.raises(VerificationError):
            verify_t_dynamic(trace, pair, T=1, raise_on_failure=True)

    def test_valid_trace_passes(self):
        trace = _trace([{0: 1, 1: 2, 2: 1, 3: 1}] * 3)
        assert verify_t_dynamic(trace, coloring_problem_pair(), T=2) == []
