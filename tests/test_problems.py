"""Tests of the problem framework: LCL base, MIS pair, colouring pair."""

import pytest

from repro.dynamics import generators
from repro.problems import (
    DominatingSetProblem,
    IndependentSetProblem,
    DegreePlusOneRangeProblem,
    ProperColoringProblem,
    coloring_problem_pair,
    is_maximal_independent_set,
    is_proper_coloring,
    mis_problem_pair,
)
from repro.problems.mis import mis_assignment_from_set
from repro.problems.coloring import num_colors_used


@pytest.fixture
def path5():
    return generators.path(5)


class TestIndependentSet:
    def test_solution_check(self, path5):
        problem = IndependentSetProblem()
        good = {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
        bad = {0: 1, 1: 1, 2: 0, 3: 0, 4: 1}
        assert problem.is_solution(path5, good)
        assert not problem.is_solution(path5, bad)
        assert problem.violations(path5, bad) == [0, 1]

    def test_partial_packing(self, path5):
        problem = IndependentSetProblem()
        assert problem.is_partial_packing(path5, {0: 1, 2: 1})
        assert not problem.is_partial_packing(path5, {0: 1, 1: 1})

    def test_undecided_nodes_reported(self, path5):
        problem = IndependentSetProblem()
        assert problem.undecided_nodes(path5, {0: 1}) == [1, 2, 3, 4]

    def test_members_helper(self):
        assert IndependentSetProblem.members({0: 1, 1: 0, 2: None}) == frozenset({0})


class TestDominatingSet:
    def test_solution_check(self, path5):
        problem = DominatingSetProblem()
        good = {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}
        assert problem.is_solution(path5, good)
        bad = {0: 0, 1: 0, 2: 1, 3: 0, 4: 1}
        assert not problem.is_solution(path5, bad)

    def test_partial_covering_only_checks_declared_dominated(self, path5):
        problem = DominatingSetProblem()
        # Node 4 declared dominated without a dominator -> not partial covering.
        assert not problem.is_partial_covering(path5, {4: 0})
        # Node 4 undecided -> fine; node 3 dominated by 2.
        assert problem.is_partial_covering(path5, {2: 1, 3: 0})


class TestMisPair:
    def test_pair_full_solution(self, path5):
        pair = mis_problem_pair()
        mis = {0, 2, 4}
        assignment = mis_assignment_from_set(path5, mis)
        assert pair.is_full_solution(path5, assignment)
        assert is_maximal_independent_set(path5, mis)

    def test_not_maximal(self, path5):
        assert not is_maximal_independent_set(path5, {0})
        assert not is_maximal_independent_set(path5, {0, 1})

    def test_partial_solution_characterisation(self, path5):
        pair = mis_problem_pair()
        # Independent but with an undominated declared-dominated node.
        assert not pair.is_partial_solution(path5, {0: 1, 3: 0})
        assert pair.is_partial_solution(path5, {0: 1, 1: 0})

    def test_members_outside_graph_rejected(self, triangle):
        assert not is_maximal_independent_set(triangle, {99})


class TestColoringPair:
    def test_proper_coloring_check(self, path5):
        assert is_proper_coloring(path5, {0: 1, 1: 2, 2: 1, 3: 2, 4: 1})
        assert not is_proper_coloring(path5, {0: 1, 1: 1, 2: 2, 3: 1, 4: 2})
        assert not is_proper_coloring(path5, {0: 1})  # incomplete
        assert is_proper_coloring(path5, {0: 1}, require_complete=False)

    def test_degree_plus_one_range(self, path5):
        problem = DegreePlusOneRangeProblem()
        assert problem.check_node(path5, {0: 2}, 0)   # deg(0)+1 = 2
        assert not problem.check_node(path5, {0: 3}, 0)
        assert not problem.check_node(path5, {0: 0}, 0)

    def test_partial_characterisations(self, path5):
        packing = ProperColoringProblem()
        covering = DegreePlusOneRangeProblem()
        assert packing.is_partial_packing(path5, {0: 1, 1: 2})
        assert not packing.is_partial_packing(path5, {0: 1, 1: 1})
        assert covering.is_partial_covering(path5, {1: 3})
        assert not covering.is_partial_covering(path5, {0: 5})

    def test_pair_name_and_full_solution(self, path5):
        pair = coloring_problem_pair()
        assignment = {0: 1, 1: 2, 2: 1, 3: 2, 4: 1}
        assert pair.is_full_solution(path5, assignment)
        assert "proper-coloring" in pair.name

    def test_num_colors_used(self):
        assert num_colors_used({0: 1, 1: 2, 2: 1, 3: None}) == 2
