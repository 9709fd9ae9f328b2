"""Unit tests for the churn processes, driven through ``step_delta``."""

import pytest

from repro.errors import ConfigurationError
from repro.dynamics import generators
from repro.dynamics.churn import (
    BurstChurn,
    EdgeInsertionChurn,
    FlipChurn,
    MarkovEdgeChurn,
    StaticChurn,
)


@pytest.fixture
def base(rng_factory):
    return generators.gnp(20, 0.3, rng_factory.stream("churn-base"))


def replay(churn, rng, rounds, start=1):
    """``(added, removed, present)`` of each round, replayed from ``G_0 = ∅``.

    Checks that every delta is exact against the replayed edge set.
    """
    present = frozenset()
    out = []
    for r in range(start, start + rounds):
        added, removed = churn.step_delta(r, rng)
        assert not added & present and removed <= present
        present = (present - removed) | added
        out.append((added, removed, present))
    return out


def edge_sets(churn, rng, rounds, start=1):
    """The edge set of each round, replayed from ``G_0 = ∅``."""
    return [present for _, _, present in replay(churn, rng, rounds, start)]


class TestStaticChurn:
    def test_returns_base_every_round(self, base, rng_factory):
        churn = StaticChurn(base)
        rounds = replay(churn, rng_factory.stream("static"), 4)
        assert rounds[0] == (base.edges, frozenset(), base.edges)
        for added, removed, present in rounds[1:]:
            assert not added and not removed and present == base.edges


class TestMarkovAndFlip:
    def test_zero_probabilities_keep_edges(self, base, rng_factory):
        churn = MarkovEdgeChurn(base, p_off=0.0, p_on=0.0)
        assert edge_sets(churn, rng_factory.stream("m"), 1) == [base.edges]

    def test_always_off(self, base, rng_factory):
        churn = MarkovEdgeChurn(base, p_off=1.0, p_on=0.0)
        assert edge_sets(churn, rng_factory.stream("m2"), 2) == [frozenset(), frozenset()]

    def test_oscillation_with_full_probabilities(self, base, rng_factory):
        churn = MarkovEdgeChurn(base, p_off=1.0, p_on=1.0)
        assert edge_sets(churn, rng_factory.stream("m3"), 2) == [frozenset(), base.edges]

    def test_edges_stay_within_base(self, base, rng_factory):
        churn = FlipChurn(base, 0.3)
        for edges in edge_sets(churn, rng_factory.stream("flip"), 19):
            assert edges <= base.edges

    def test_reset_restores_initial_state(self, base, rng_factory):
        churn = FlipChurn(base, 0.5)
        first = replay(churn, rng_factory.stream("flip-reset"), 3)
        churn.reset()
        assert replay(churn, rng_factory.stream("flip-reset"), 3) == first

    def test_flip_prob_accessor(self, base):
        assert FlipChurn(base, 0.25).flip_prob == 0.25

    def test_invalid_probability_rejected(self, base):
        with pytest.raises(ConfigurationError):
            MarkovEdgeChurn(base, p_off=1.5, p_on=0.0)

    def test_empty_base_graph(self, rng_factory):
        churn = MarkovEdgeChurn(generators.empty(5), p_off=0.5, p_on=0.5)
        assert edge_sets(churn, rng_factory.stream("e"), 1) == [frozenset()]


class TestBurstChurn:
    def test_no_burst_keeps_all_edges(self, base, rng_factory):
        churn = BurstChurn(base, burst_prob=0.0, drop_fraction=0.5)
        assert edge_sets(churn, rng_factory.stream("b"), 1) == [base.edges]

    def test_burst_drops_expected_fraction(self, base, rng_factory):
        churn = BurstChurn(base, burst_prob=1.0, drop_fraction=0.5)
        (edges,) = edge_sets(churn, rng_factory.stream("b2"), 1)
        assert len(edges) == round(base.num_edges * 0.5)
        assert edges <= base.edges

    def test_full_drop(self, base, rng_factory):
        churn = BurstChurn(base, burst_prob=1.0, drop_fraction=1.0)
        assert edge_sets(churn, rng_factory.stream("b3"), 1) == [frozenset()]

    def test_calm_after_calm_is_an_empty_delta(self, base, rng_factory):
        churn = BurstChurn(base, burst_prob=0.0, drop_fraction=0.5)
        rounds = replay(churn, rng_factory.stream("b4"), 5)
        assert rounds[0][0] == base.edges
        assert all(not added and not removed for added, removed, _ in rounds[1:])

    def test_burst_then_calm_restores_the_base(self, base, rng_factory):
        churn = BurstChurn(base, burst_prob=0.5, drop_fraction=0.5)
        rounds = replay(churn, rng_factory.stream("b5"), 40)
        restored = 0
        for (_, _, before), (added, removed, after) in zip(rounds, rounds[1:]):
            if before != base.edges and after == base.edges:
                # burst -> calm: exactly the dropped edges come back
                assert added == base.edges - before and not removed
                restored += 1
            elif before == after == base.edges:
                assert not added and not removed
        assert restored > 0

    def test_reset_restores_initial_state(self, base, rng_factory):
        churn = BurstChurn(base, burst_prob=0.5, drop_fraction=0.5)
        first = replay(churn, rng_factory.stream("b6"), 6)
        churn.reset()
        assert replay(churn, rng_factory.stream("b6"), 6) == first


class TestEdgeInsertionChurn:
    def test_keeps_base_and_adds_extras(self, base, rng_factory):
        churn = EdgeInsertionChurn(base, insertions_per_round=3, lifetime=2)
        (edges,) = edge_sets(churn, rng_factory.stream("ins"), 1)
        assert base.edges < edges

    def test_inserted_edges_expire(self, base, rng_factory):
        churn = EdgeInsertionChurn(base, insertions_per_round=5, lifetime=1)
        (_, _, first), (_, removed, second) = replay(churn, rng_factory.stream("ins2"), 2)
        inserted = first - base.edges
        assert inserted
        # Lifetime 1: every round-1 insertion leaves in round 2 unless drawn again.
        assert inserted == removed | (inserted & second)

    @pytest.mark.parametrize("lifetime", [0, 1.5])
    def test_invalid_lifetime_rejected(self, base, lifetime):
        with pytest.raises(ConfigurationError, match="lifetime"):
            EdgeInsertionChurn(base, insertions_per_round=1, lifetime=lifetime)

    def test_non_integer_insertions_rejected(self, base):
        with pytest.raises(ConfigurationError, match="insertions_per_round"):
            EdgeInsertionChurn(base, insertions_per_round=1.5, lifetime=2)

    def test_reset_clears_active_edges(self, base, rng_factory):
        fresh = EdgeInsertionChurn(base, insertions_per_round=5, lifetime=10)
        expected = fresh.step_delta(1, rng_factory.stream("ins4"))
        churn = EdgeInsertionChurn(base, insertions_per_round=5, lifetime=10)
        churn.step_delta(1, rng_factory.stream("ins3"))
        churn.reset()
        assert churn.step_delta(1, rng_factory.stream("ins4")) == expected
