"""The delta engine: TopologyDelta, incremental storage, simulator handling.

``Topology.apply(delta)`` must round-trip against from-scratch construction
for arbitrary change sequences.  That every registered adversary's deltas
are exact is checked by the oracle in ``test_property_based.py``.
"""

import numpy as np
import pytest

from repro.errors import SimulationError, TopologyError
from repro.dynamics import generators
from repro.dynamics.adversary import Adversary, FULLY_OBLIVIOUS
from repro.dynamics.dynamic_graph import DynamicGraph
from repro.dynamics.topology import EMPTY_DELTA, Topology, TopologyDelta, empty_topology
from repro.runtime.simulator import Simulator
from repro.scenarios import ScenarioSpec, available
from repro.types import Interval, canonical_edge


# ---------------------------------------------------------------------------
# TopologyDelta + Topology.apply
# ---------------------------------------------------------------------------


class TestTopologyDelta:
    def test_canonicalises_edges_and_nodes(self):
        delta = TopologyDelta(added_nodes=[3, 1], added_edges=[(2, 1), (0, 3)])
        assert delta.added_nodes == frozenset({1, 3})
        assert delta.added_edges == frozenset({(1, 2), (0, 3)})

    def test_overlapping_sides_rejected(self):
        with pytest.raises(TopologyError):
            TopologyDelta(added_nodes=[1], removed_nodes=[1])
        with pytest.raises(TopologyError):
            TopologyDelta(added_edges=[(0, 1)], removed_edges=[(1, 0)])

    def test_empty_delta_is_identity(self):
        topo = generators.ring(6)
        assert topo.apply(EMPTY_DELTA) is topo
        assert EMPTY_DELTA.is_empty() and not EMPTY_DELTA

    def test_between_round_trips(self):
        before = Topology(range(5), [(0, 1), (1, 2), (3, 4)])
        after = Topology(range(6), [(0, 1), (2, 3), (3, 4), (4, 5)])
        delta = TopologyDelta.between(before, after)
        assert before.apply(delta) == after
        assert delta == TopologyDelta(
            added_nodes=[5], added_edges=[(2, 3), (4, 5)], removed_edges=[(1, 2)]
        )

    def test_apply_shares_untouched_neighbour_sets(self):
        before = generators.ring(8)
        after = before.apply(TopologyDelta(removed_edges=[(0, 1)]))
        # Nodes 3..6 are untouched: their frozensets are the same objects.
        for v in (3, 4, 5, 6):
            assert after.neighbors(v) is before.neighbors(v)
        assert after.neighbors(0) == before.neighbors(0) - {1}

    def test_apply_strictness(self):
        topo = Topology(range(4), [(0, 1), (2, 3)])
        cases = [
            TopologyDelta(added_edges=[(0, 1)]),     # already present
            TopologyDelta(removed_edges=[(1, 2)]),   # absent
            TopologyDelta(added_nodes=[2]),          # already awake
            TopologyDelta(removed_nodes=[9]),        # not awake
            TopologyDelta(removed_nodes=[0]),        # still has an edge
            TopologyDelta(added_edges=[(0, 9)]),     # endpoint not awake
        ]
        for delta in cases:
            with pytest.raises(TopologyError):
                topo.apply(delta)

    def test_remove_node_after_its_edges(self):
        topo = Topology(range(3), [(0, 1)])
        out = topo.apply(TopologyDelta(removed_nodes=[2]))
        assert out.nodes == frozenset({0, 1})
        out2 = topo.apply(TopologyDelta(removed_edges=[(0, 1)], removed_nodes=[1]))
        assert out2.nodes == frozenset({0, 2}) and not out2.edges

    def test_property_style_random_round_trip(self):
        rng = np.random.default_rng(7)
        n = 30
        nodes = set(range(10))
        edges: set = set()
        current = Topology(nodes, edges)
        for _ in range(60):
            # Random exact delta against the current graph.
            sleeping = [v for v in range(n) if v not in nodes]
            add_nodes = {
                int(v) for v in rng.choice(sleeping, size=min(len(sleeping), 2), replace=False)
            } if sleeping and rng.random() < 0.5 else set()
            new_nodes = nodes | add_nodes
            pool = sorted(new_nodes)
            add_edges, del_edges = set(), set()
            for _ in range(int(rng.integers(0, 6))):
                u, v = rng.choice(len(pool), size=2, replace=False)
                e = canonical_edge(pool[int(u)], pool[int(v)])
                if e in edges:
                    del_edges.add(e)
                else:
                    add_edges.add(e)
            delta = TopologyDelta(
                added_nodes=add_nodes, added_edges=add_edges, removed_edges=del_edges
            )
            nodes = new_nodes
            edges = (edges - del_edges) | add_edges
            current = current.apply(delta)
            assert current == Topology(nodes, edges)
            assert current.nodes == frozenset(nodes)
            for v in nodes:
                assert current.degree(v) == sum(1 for e in edges if v in e)


# ---------------------------------------------------------------------------
# DynamicGraph delta storage
# ---------------------------------------------------------------------------


def _random_evolution(rounds: int, seed: int):
    """A list of (delta, topology) pairs for a growing random dynamic graph."""
    rng = np.random.default_rng(seed)
    topo = empty_topology()
    out = []
    for r in range(rounds):
        add_nodes = frozenset(
            int(v) for v in rng.choice(32, size=3, replace=False) if v not in topo.nodes
        )
        pool = sorted(topo.nodes | add_nodes)
        add_edges, del_edges = set(), set()
        if len(pool) >= 2:
            for _ in range(4):
                u, v = rng.choice(len(pool), size=2, replace=False)
                e = canonical_edge(pool[int(u)], pool[int(v)])
                if e in topo.edges:
                    del_edges.add(e)
                elif e not in add_edges:
                    add_edges.add(e)
        delta = TopologyDelta(
            added_nodes=add_nodes, added_edges=add_edges, removed_edges=del_edges
        )
        topo = topo.apply(delta)
        out.append((delta, topo))
    return out


class TestDeltaStorage:
    @pytest.mark.parametrize("with_graphs", [True, False], ids=["checkpointed", "delta-only"])
    def test_delta_storage_matches_snapshot_storage(self, with_graphs):
        """Rounds appended as deltas, with or without their graphs, give the recorded graphs back."""
        evolution = _random_evolution(rounds=70, seed=11)
        expected = [topo for _, topo in evolution]
        graph = DynamicGraph(32)
        for delta, topo in evolution:
            graph.append(delta, topo if with_graphs else None)
        assert graph.last_round == 70
        # Rounds appended with their graph keep one as a checkpoint every
        # 32nd round; delta-only rounds replay from G_0.
        stored = [r for r, entry in enumerate(graph._entries, start=1) if isinstance(entry, Topology)]
        assert stored == ([1, 33, 65] if with_graphs else [])
        assert list(graph.topologies()) == expected
        # Random access (exercises the checkpoint walk, not just the cursor).
        for r in (70, 1, 17, 5, 33, 40, 65, 17):
            assert graph.topology(r) == expected[r - 1]
        previous = empty_topology()
        for r, topo in enumerate(expected, start=1):
            assert graph.edge_changes(r) == (topo.edges - previous.edges, previous.edges - topo.edges)
            previous = topo
            for T in (1, 5):
                if r < T:
                    continue
                window = expected[r - T : r]
                assert graph.intersection_graph(r, T).edges == frozenset.intersection(
                    *(t.edges for t in window)
                )
                assert graph.union_graph(r, T).edges == frozenset().union(
                    *(t.edges for t in window)
                )
        assert graph.churn_per_round() == [
            len(cur.edges ^ prev.edges) for prev, cur in zip([empty_topology()] + expected, expected)
        ]
        interval = Interval(10, 20)
        keep = expected[9].nodes
        assert graph.is_static_on(keep, interval) == all(
            t.subgraph(keep) == expected[9].subgraph(keep) for t in expected[9:20]
        )

    def test_append_rejects_node_removal_and_out_of_range(self):
        graph = DynamicGraph(8)
        graph.append(TopologyDelta(added_nodes=range(4)))
        with pytest.raises(TopologyError):
            graph.append(TopologyDelta(removed_nodes=[0]))
        with pytest.raises(TopologyError):
            graph.append(TopologyDelta(added_nodes=[9]))

    def test_appended_graph_is_the_latest_round(self):
        graph = DynamicGraph(8)
        latest = Topology(range(3), [(0, 1)])
        graph.append(TopologyDelta.between(empty_topology(), latest), latest)
        assert graph.topology(1) is latest


# ---------------------------------------------------------------------------
# simulator-level delta handling
# ---------------------------------------------------------------------------


class _DeltaScript(Adversary):
    """Emits a scripted list of per-round deltas (or, to test rejection, anything)."""

    obliviousness = FULLY_OBLIVIOUS

    def __init__(self, script):
        self._script = script

    def step(self, view):
        return self._script[view.round_index - 1]


def _null_algorithm():
    from repro.runtime.algorithm import DistributedAlgorithm

    class Null(DistributedAlgorithm):
        name = "null"

        def on_wake(self, v):
            pass

        def compose(self, v):
            return None

        def deliver(self, v, inbox):
            pass

        def output(self, v):
            return 0

    return Null()


class TestSimulatorDeltaPath:
    def test_delta_script(self):
        base = Topology(range(4), [(0, 1), (1, 2)])
        script = [
            TopologyDelta.between(empty_topology(), base),
            TopologyDelta(added_edges=[(2, 3)]),
            TopologyDelta(removed_edges=[(0, 1)]),
            EMPTY_DELTA,
        ]
        sim = Simulator(n=4, algorithm=_null_algorithm(), adversary=_DeltaScript(script))
        trace = sim.run(4)
        assert trace.topology(1) == base
        assert trace.topology(2) == base.with_edges(add=[(2, 3)])
        assert trace.topology(3) == base.with_edges(add=[(2, 3)], remove=[(0, 1)])
        assert trace.topology(4) == trace.topology(3)
        assert trace.graph.edge_changes(2) == (frozenset({(2, 3)}), frozenset())
        assert trace.graph.edge_changes(4) == (frozenset(), frozenset())

    def test_round_one_delta_applies_to_empty_graph(self):
        script = [TopologyDelta(added_nodes=range(3), added_edges=[(0, 1)])]
        sim = Simulator(n=3, algorithm=_null_algorithm(), adversary=_DeltaScript(script))
        trace = sim.run(1)
        assert trace.topology(1) == Topology(range(3), [(0, 1)])

    def test_invalid_delta_is_a_simulation_error(self):
        script = [
            TopologyDelta(added_nodes=range(3), added_edges=[(0, 1)]),
            TopologyDelta(added_edges=[(0, 1)]),
        ]
        sim = Simulator(n=3, algorithm=_null_algorithm(), adversary=_DeltaScript(script))
        with pytest.raises(SimulationError, match="invalid delta for round 2"):
            sim.run(2)

    def test_node_removal_is_rejected_before_the_round_runs(self):
        script = [TopologyDelta(added_nodes=range(3)), TopologyDelta(removed_nodes=[2])]
        sim = Simulator(n=3, algorithm=_null_algorithm(), adversary=_DeltaScript(script))
        with pytest.raises(SimulationError, match=r"removed awake nodes in round 2: \[2\]"):
            sim.run(2)
        assert sim.trace.num_rounds == 1

    def test_empty_delta_rounds_share_the_topology_object(self):
        base = generators.ring(5)
        script = [TopologyDelta.between(empty_topology(), base), EMPTY_DELTA, EMPTY_DELTA]
        sim = Simulator(n=5, algorithm=_null_algorithm(), adversary=_DeltaScript(script))
        trace = sim.run(3)
        assert trace.graph.edge_changes(2) == (frozenset(), frozenset())
        assert trace.topology(1) is trace.topology(2) is trace.topology(3)


# ---------------------------------------------------------------------------
# registry docs + window_for scaling (satellites)
# ---------------------------------------------------------------------------


class TestRegistrySatellites:
    def test_available_docs_surface(self):
        docs = available(docs=True)
        assert set(docs) == set(available())
        for family, members in docs.items():
            for name, doc in members.items():
                assert doc, f"{family}:{name} has no doc string"
        assert "freeze-after" in docs["adversaries"]
        assert "edge-insertion" in docs["adversaries"]

    def test_registry_doc_lookup(self):
        from repro.scenarios import ADVERSARIES

        assert ADVERSARIES.doc("freeze-after")
        with pytest.raises(Exception):
            ADVERSARIES.doc("not-a-component")

    def test_window_scale_resolution_and_round_trip(self):
        from repro.core.windows import window_for

        spec = ScenarioSpec(n=64, algorithm="smis", window_scale=0.5)
        assert spec.resolved_window() == window_for(64, 0.5)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        with pytest.raises(Exception):
            ScenarioSpec(n=64, algorithm="smis", window=10, window_scale=0.5)
        with pytest.raises(Exception):
            ScenarioSpec(n=64, algorithm="smis", window_scale=0)
