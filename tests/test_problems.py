"""Tests of the problem framework: the MIS and colouring pairs' array conditions."""

import numpy as np
import pytest

from repro.core.properties import verify_partial_solution_every_round
from repro.dynamics import generators
from repro.dynamics.topology import Topology
from repro.problems import (
    DominatingSetProblem,
    IndependentSetProblem,
    DegreePlusOneRangeProblem,
    ProperColoringProblem,
    TDynamicSpec,
    coloring_problem_pair,
    mis_problem_pair,
)
from repro.problems.coloring import num_colors_used
from repro.runtime.metrics import RoundMetrics
from repro.runtime.trace import ExecutionTrace
from helpers import array_violations_on, mis_vector, oracle_check_trace, record_round


IS, DS = IndependentSetProblem(), DominatingSetProblem()
CP, CC = ProperColoringProblem(), DegreePlusOneRangeProblem()
MIS_GOOD = {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
PROPER = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}


def _mis(members):
    return mis_vector(generators.path(5), members)


@pytest.mark.parametrize(
    "problem, outputs, partial, expected",
    [
        # independent set: no two adjacent members; ⊥ counts unless partial
        (IS, MIS_GOOD, False, []),
        (IS, {0: 1, 1: 1, 2: 0, 3: 0, 4: 1}, False, [0, 1]),
        (IS, {0: 1, 2: 1}, True, []),
        (IS, {0: 1, 1: 1}, True, [0, 1]),
        (IS, {0: 1}, False, [1, 2, 3, 4]),
        # dominating set: a decided non-member needs a member neighbour
        (DS, MIS_GOOD, False, []),
        (DS, {0: 0, 1: 0, 2: 1, 3: 0, 4: 1}, False, [0]),
        (DS, {4: 0}, True, [4]),
        (DS, {2: 1, 3: 0}, True, []),
        # the MIS pair
        (mis_problem_pair(), _mis({0, 2, 4}), False, []),
        (mis_problem_pair(), _mis({0}), False, [2, 3, 4]),
        (mis_problem_pair(), _mis({0, 1}), False, [0, 1, 3, 4]),
        (mis_problem_pair(), {0: 1, 3: 0}, True, [3]),
        (mis_problem_pair(), {0: 1, 1: 0}, True, []),
        # proper colouring: no two adjacent equal colours
        (CP, PROPER, False, []),
        (CP, {0: 1, 1: 1, 2: 2, 3: 1, 4: 2}, False, [0, 1]),
        (CP, {0: 1}, False, [1, 2, 3, 4]),
        (CP, {0: 1}, True, []),
        (CP, {0: 1, 1: 2}, True, []),
        (CP, {0: 1, 1: 1}, True, [0, 1]),
        # degree+1 range: a colour in {1, ..., deg + 1}; deg(0) + 1 = 2
        (CC, {0: 2}, True, []),
        (CC, {0: 3}, True, [0]),
        (CC, {0: 0}, True, [0]),
        (CC, {1: 3}, True, []),
        (CC, {0: 5}, True, [0]),
        (coloring_problem_pair(), PROPER, False, []),
    ],
)
def test_array_conditions_on_a_path(problem, outputs, partial, expected):
    assert array_violations_on(problem, generators.path(5), outputs, partial=partial) == expected


def test_pair_name_and_colour_count():
    assert "proper-coloring" in coloring_problem_pair().name
    assert num_colors_used({0: 1, 1: 2, 2: 1, 3: None}) == 2


class TestRangeByEqualityClass:
    """A colour equal to an int ``k`` is coded ``k``: the range verdict
    depends only on what ``!=`` (and so a round's change set) tells apart."""

    @pytest.mark.parametrize(
        "color, code",
        [(2, 2), (2.0, 2), (np.int64(2), 2), (True, 1), (False, 0), (2.5, 0), ("2", 0), (0, 0)],
    )
    def test_code_of_equal_values(self, color, code):
        assert DegreePlusOneRangeProblem().array_encoder()(color) == code

    @pytest.mark.parametrize("retention", ["full", "stats"])
    def test_two_to_two_point_zero_keeps_its_verdict(self, retention):
        """Node 0 (degree 1) goes ``2 -> 2.0``: the change set misses it,
        and neither verdict may depend on which of the two was read."""
        topo = Topology([0, 1], [(0, 1)])
        trace = ExecutionTrace(2, "alg", "adv", retention=retention)
        record_round(trace, topo, {0: 2, 1: 1}, RoundMetrics(1, 2, 1, 2, 2, 4, 8, 2))
        record_round(trace, topo, {0: 2.0, 1: 1}, RoundMetrics(2, 2, 1, 2, 2, 4, 8, 0))
        assert trace.changed_nodes(2) == frozenset()
        pair = coloring_problem_pair()
        assert TDynamicSpec(pair, 1).check_trace(trace) == oracle_check_trace(pair, 1, trace)
        assert all(res.is_valid for res in TDynamicSpec(pair, 1).check_trace(trace))
        assert verify_partial_solution_every_round(trace, pair) == []
