"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.utils.rng import RngFactory
from repro.dynamics import generators
from repro.dynamics.topology import Topology


@pytest.fixture
def rng_factory() -> RngFactory:
    """A deterministic RNG factory for tests."""
    return RngFactory(12345)


@pytest.fixture
def triangle() -> Topology:
    """The triangle graph on nodes {0, 1, 2}."""
    return Topology([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def path4() -> Topology:
    """The path 0 - 1 - 2 - 3."""
    return generators.path(4)


@pytest.fixture
def small_gnp(rng_factory: RngFactory) -> Topology:
    """A small sparse random graph used by many algorithm tests."""
    return generators.gnp(24, 0.2, rng_factory.stream("small_gnp"))


@pytest.fixture
def medium_gnp(rng_factory: RngFactory) -> Topology:
    """A medium random graph for convergence tests."""
    return generators.gnp(48, 0.12, rng_factory.stream("medium_gnp"))


@pytest.fixture
def fleet_ready():
    """Block until every worker of a ``RemoteBackend`` has sent its ready line.

    A small batch can finish on the first ready worker before a slower one
    has imported the package, so a fault injected into worker 0 would never
    fire.  The ready lines are put back on the inbox for the dispatcher.
    """

    def wait(backend) -> None:
        backend.start()
        lines = [backend._inbox.get(timeout=120) for _ in backend._workers]
        for line in lines:
            backend._inbox.put(line)

    return wait
