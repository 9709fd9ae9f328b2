"""Unit tests for the mobility model and the wake-up schedules."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.dynamics.mobility import RandomWaypointMobility
from repro.dynamics.wakeup import (
    AllAwake,
    StaggeredWakeup,
    UniformRandomWakeup,
)


class TestRandomWaypointMobility:
    def test_positions_stay_in_unit_square(self, rng_factory):
        model = RandomWaypointMobility(20, radius=0.3, speed=0.1, rng=rng_factory.stream("mob"))
        for _ in range(15):
            model.step()
        positions = model.positions
        assert np.all(positions >= -1e-9) and np.all(positions <= 1 + 1e-9)

    def test_edges_respect_radius(self, rng_factory):
        model = RandomWaypointMobility(15, radius=0.25, speed=0.05, rng=rng_factory.stream("mob2"))
        topo = model.step()
        positions = model.positions
        for u, v in topo.edges:
            assert np.linalg.norm(positions[u] - positions[v]) <= 0.25 + 1e-9

    def test_current_edges_matches_step_topology(self, rng_factory):
        model = RandomWaypointMobility(10, radius=0.4, speed=0.05, rng=rng_factory.stream("mob3"))
        topo = model.step()
        assert model.current_edges() == topo.edges

    def test_invalid_parameters_rejected(self, rng_factory):
        with pytest.raises(ConfigurationError):
            RandomWaypointMobility(0, radius=0.2, speed=0.1, rng=rng_factory.stream("m"))
        with pytest.raises(ConfigurationError):
            RandomWaypointMobility(5, radius=0.2, speed=0.1, pause_probability=2.0, rng=rng_factory.stream("m"))


class TestWakeupSchedules:
    def test_all_awake(self):
        schedule = AllAwake(5)
        assert schedule.awake_at(0) == frozenset()
        assert schedule.awake_at(1) == frozenset(range(5))
        assert schedule.wake_round(3) == 1

    def test_staggered_monotone(self):
        schedule = StaggeredWakeup(10, batch_size=3, interval=2)
        previous = frozenset()
        for r in range(1, 12):
            awake = schedule.awake_at(r)
            assert previous <= awake
            previous = awake
        assert schedule.awake_at(1) == frozenset(range(3))
        assert schedule.awake_at(20) == frozenset(range(10))

    def test_uniform_random_monotone_and_bounded(self, rng_factory):
        schedule = UniformRandomWakeup(20, spread=6, rng=rng_factory.stream("wake"))
        previous = frozenset()
        for r in range(1, 8):
            awake = schedule.awake_at(r)
            assert previous <= awake
            previous = awake
        assert schedule.awake_at(6) == frozenset(range(20))
        assert 1 <= schedule.wake_round(0) <= 6

    def test_staggered_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            StaggeredWakeup(5, batch_size=0)
        with pytest.raises(ConfigurationError):
            StaggeredWakeup(5, batch_size=1, interval=0)

    @pytest.mark.parametrize("interval", ["x", 0, -1, 1.5])
    def test_staggered_interval_must_be_a_positive_integer(self, interval):
        with pytest.raises(ConfigurationError, match="interval must be"):
            StaggeredWakeup(5, batch_size=1, interval=interval)
