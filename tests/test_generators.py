"""Unit tests for the topology generators."""

import networkx as nx
import pytest

from repro.errors import ConfigurationError, RegistryError
from repro.dynamics import generators
from repro.dynamics.topology import Topology, topology_from_networkx
from repro.scenarios import TOPOLOGIES


class TestDeterministicFamilies:
    def test_ring(self):
        topo = generators.ring(5)
        assert topo.num_nodes == 5 and topo.num_edges == 5
        assert all(topo.degree(v) == 2 for v in topo.nodes)

    def test_ring_small_cases(self):
        assert generators.ring(1).num_edges == 0
        assert generators.ring(2).num_edges == 1

    def test_path(self):
        topo = generators.path(5)
        assert topo.num_edges == 4
        assert topo.degree(0) == 1 and topo.degree(2) == 2

    def test_star(self):
        topo = generators.star(6)
        assert topo.degree(0) == 5
        assert all(topo.degree(v) == 1 for v in range(1, 6))

    def test_clique(self):
        topo = generators.clique(5)
        assert topo.num_edges == 10

    def test_grid_and_torus(self):
        grid = generators.grid(3, 4)
        torus = generators.torus(3, 4)
        assert grid.num_nodes == 12 and torus.num_nodes == 12
        assert grid.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert all(torus.degree(v) in (3, 4) for v in torus.nodes)

    def test_empty(self):
        topo = generators.empty(7)
        assert topo.num_nodes == 7 and topo.num_edges == 0


class TestRandomFamilies:
    def test_gnp_reproducible(self, rng_factory):
        a = generators.gnp(30, 0.2, rng_factory.stream("g"))
        b = generators.gnp(30, 0.2, rng_factory.stream("g"))
        assert a == b

    @pytest.mark.parametrize("n, p", [(1, 0.5), (2, 0.5), (40, 0.1), (40, 0.0), (40, 1.0), (300, 0.02)])
    def test_gnp_is_networkx_graph(self, n, p):
        # content and iteration order; the repro verify contract covers more
        reference = topology_from_networkx(nx.fast_gnp_random_graph(n, p, seed=11))
        built = Topology.from_arrays(range(n), *generators.gnp_edge_arrays(n, p, 11))
        assert built == reference
        assert built.iterates_like(reference)

    @pytest.mark.parametrize("p", [1e-17, 2.0**-54, 5e-324])
    def test_gnp_vanishing_p_is_edgeless(self, p, rng_factory):
        # 1 - p rounds to 1, so networkx's skip would divide by zero
        topo = generators.gnp(64, p, rng_factory.stream("g"))
        assert topo.num_nodes == 64 and topo.num_edges == 0

    def test_gnp_rejects_bad_probability(self, rng_factory):
        with pytest.raises(ConfigurationError):
            generators.gnp(10, 1.5, rng_factory.stream("g"))

    def test_random_geometric_radius(self, rng_factory):
        topo = generators.random_geometric(40, 0.3, rng_factory.stream("geo"))
        assert topo.num_nodes == 40

    def test_barabasi_albert(self, rng_factory):
        topo = generators.barabasi_albert(30, 2, rng_factory.stream("ba"))
        assert topo.num_nodes == 30
        assert topo.num_edges >= 2 * (30 - 2) - 2


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_every_family_generates(self, name, rng_factory):
        topo = TOPOLOGIES.get(name)(20, rng_factory.stream("byname", name))
        assert topo.num_nodes == 20
        assert all(0 <= v < 20 for v in topo.nodes)

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_same_stream_builds_the_same_graph(self, name, rng_factory):
        first = TOPOLOGIES.get(name)(20, rng_factory.stream("byname", name))
        second = TOPOLOGIES.get(name)(20, rng_factory.stream("byname", name))
        assert first == second
        assert first.iterates_like(second)

    def test_unknown_name_rejected(self):
        # `clique` is a generator function only, not a registered topology.
        with pytest.raises(RegistryError, match="unknown topology 'clique'"):
            TOPOLOGIES.get("clique")

    def test_gnp_sparse_is_gnp_degree_at_its_default(self, rng_factory):
        sparse = TOPOLOGIES.get("gnp_sparse")(60, rng_factory.stream("g"))
        degree = TOPOLOGIES.get("gnp_degree")(60, rng_factory.stream("g"))
        assert sparse == degree
        assert sparse.iterates_like(degree)

    def test_barabasi_albert_rejects_a_fractional_m(self, rng_factory):
        with pytest.raises(ConfigurationError, match="m must be an integer"):
            generators.barabasi_albert(30, 2.5, rng_factory.stream("ba"))

    @pytest.mark.parametrize("m", [0, -1])
    def test_barabasi_albert_rejects_a_non_positive_m(self, m, rng_factory):
        with pytest.raises(ConfigurationError, match="m must be >= 1"):
            generators.barabasi_albert(30, m, rng_factory.stream("ba"))
