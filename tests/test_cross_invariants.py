"""Cross-cutting invariants that tie several layers together.

These tests check relationships *between* components (problem duality, window
algebra against the checker, scenario workload builders, adversary
descriptions) rather than any single module in isolation.
"""

from hypothesis import given, settings, strategies as st

from repro.dynamics import generators
from repro.dynamics.adversaries import (
    ChurnAdversary,
    LocallyStaticAdversary,
    ScriptedAdversary,
    StaticAdversary,
    TargetedColoringAdversary,
    TargetedMisAdversary,
)
from repro.dynamics.churn import FlipChurn, StaticChurn
from repro.dynamics.topology import Topology
from repro.problems import (
    TDynamicSpec,
    coloring_problem_pair,
    mis_problem_pair,
)
from repro.algorithms.mis.greedy import greedy_mis
from repro.algorithms.coloring.greedy import greedy_coloring
from repro.analysis.experiments.common import log2
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.executor import _build_context
from helpers import array_violations_on, mis_vector, record_graph


def scenario_context(n, seed, adversary="static"):
    """The seed's components as the scenario registries build them."""
    spec = ScenarioSpec(n=n, algorithm="smis", adversary=adversary, rounds=1, seeds=(seed,))
    return _build_context(spec, seed)


@st.composite
def small_topologies(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)) if possible else st.just([]))
    return Topology(range(n), edges)


class TestProblemDuality:
    @settings(max_examples=40)
    @given(small_topologies())
    def test_color_class_one_is_an_independent_dominating_like_set(self, topo):
        """Greedy colouring's colour class 1 is independent; it need not dominate,
        but adding it to the MIS checker's packing half must always succeed."""
        colors = greedy_coloring(topo)
        class_one = {v for v, c in colors.items() if c == 1}
        assignment = mis_vector(topo, class_one)
        assert not array_violations_on(mis_problem_pair().packing, topo, assignment)

    @settings(max_examples=40)
    @given(small_topologies())
    def test_dropping_dominated_values_keeps_a_partial_solution(self, topo):
        """Un-deciding *dominated* nodes of a full MIS solution keeps a partial solution.

        (Dropping MIS nodes would not: their former neighbours would become
        dominated-without-a-dominator, which is exactly what Definition 3.2's
        "for all extensions" clause rules out — see the failing variant of this
        invariant discussed in the problems-layer docstrings.)
        """
        pair = mis_problem_pair()
        assignment = mis_vector(topo, greedy_mis(topo))
        dominated = [v for v, value in assignment.items() if value == 0]
        for v in dominated[:: 2]:
            assignment[v] = None
        assert not array_violations_on(pair, topo, assignment, partial=True)


class TestWindowCheckerConsistency:
    @settings(max_examples=25)
    @given(st.lists(small_topologies(), min_size=2, max_size=5), st.integers(1, 4))
    def test_checker_windows_match_dynamic_graph_windows(self, topologies, T):
        """TDynamicSpec must evaluate exactly the Definition 2.1 window graphs."""
        n = max(max(t.nodes, default=0) for t in topologies) + 1
        graph = DynamicGraph(n)
        union_nodes = set()
        normalised = []
        for topo in topologies:
            union_nodes |= topo.nodes
            normalised.append(Topology(union_nodes, [e for e in topo.edges]))
        for topo in normalised:
            record_graph(graph, topo)
        r = len(normalised)
        spec = TDynamicSpec(coloring_problem_pair(), T)
        intersection = graph.intersection_graph(r, T)
        # A greedy colouring of the *union* graph is proper on the intersection
        # graph too (it has fewer edges) and within every union degree + 1, so
        # the round must validate whenever all constrained nodes are coloured.
        union = graph.union_graph(r, T)
        outputs = greedy_coloring(union)
        for v in union_nodes - set(outputs):
            outputs[v] = 1
        result = spec.check_round(graph, outputs, r)
        assert result.constrained_nodes == len(intersection.nodes)
        assert result.is_valid


class TestWorkloadBuilders:
    def test_base_topology_is_seed_deterministic(self):
        assert scenario_context(32, 7).base == scenario_context(32, 7).base
        assert scenario_context(32, 7).base != scenario_context(32, 8).base

    def test_churn_adversary_modes(self):
        flip = scenario_context(24, 1, component("flip-churn", flip_prob=0.1)).adversary
        markov = component("markov-churn", p_off=0.2, p_on=0.1)
        markov = scenario_context(24, 1, markov).adversary
        static = scenario_context(24, 1).adversary
        assert isinstance(flip, ChurnAdversary) and isinstance(markov, ChurnAdversary)
        assert isinstance(static, StaticAdversary)

    def test_log2_helper(self):
        assert log2(2) == 1.0
        assert log2(1) == 1.0  # clamped at n = 2
        assert log2(1024) == 10.0


class TestAdversaryDescriptions:
    def test_every_adversary_describes_itself(self, rng_factory):
        base = generators.ring(8)
        adversaries = [
            StaticAdversary(base),
            ScriptedAdversary([base]),
            ChurnAdversary(8, StaticChurn(base), rng_factory.stream("a")),
            LocallyStaticAdversary(base, 0, 1, FlipChurn(base, 0.1), rng_factory.stream("b")),
            TargetedColoringAdversary(base, 1, 2, rng_factory.stream("c")),
            TargetedMisAdversary(base, "join_mis", 1, rng_factory.stream("d")),
        ]
        descriptions = {adv.describe() for adv in adversaries}
        assert len(descriptions) == len(adversaries)
        for text in descriptions:
            assert text and isinstance(text, str)

    def test_declared_obliviousness_is_consistent(self, rng_factory):
        base = generators.ring(8)
        assert StaticAdversary(base).obliviousness > 2
        assert ChurnAdversary(8, StaticChurn(base), rng_factory.stream("a")).obliviousness > 2
        assert TargetedColoringAdversary(base, 1, 2, rng_factory.stream("c")).obliviousness == 1
        assert TargetedMisAdversary(base, "join_mis", 1, rng_factory.stream("d")).obliviousness == 1


class TestProblemPairNaming:
    def test_pair_names_are_informative(self):
        assert "independent-set" in mis_problem_pair().name
        assert "degree-plus-one" in coloring_problem_pair().name
