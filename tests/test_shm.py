"""Shared-memory topology pools (:mod:`repro.exec.shm`).

Gates:

* publish → attach round-trips a base topology content-identically (nodes,
  edges, adjacency), in the same set iteration order, and primes the
  zero-copy edge-universe cache; a topology whose order cannot be rebuilt
  from arrays is published as its edge universe only;
* the runner publishes exactly the topologies shared by >= 2 units of a
  pooled batch, pooled rows stay byte-identical to serial rows — also with
  spawned workers, which always attach — and every segment is unlinked
  when the batch ends — crash or not;
* ``repro audit`` reports segments whose owning process died, and
  ``repro repair`` unlinks them.
"""

import functools
import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.exec import backends, shm
from repro.exec.cache import cached_base_topology, topology_cache_clear
from repro.exec.policy import ExecutionPolicy
from repro.exec.runner import run_units
from repro.exec.units import build_chunks, units_for_spec
from repro.kernel.csr import EdgeUniverse
from repro.scenarios.spec import ScenarioSpec, component


@pytest.fixture(autouse=True)
def _clean_shm_state():
    shm.shm_state_clear()
    topology_cache_clear()
    yield
    shm.shm_state_clear()
    topology_cache_clear()


def _spec(algorithm: str, seeds=(1, 2)) -> ScenarioSpec:
    return ScenarioSpec(
        n=48,
        algorithm=component(algorithm),
        adversary=component("markov-churn", p_off=0.1, p_on=0.1),
        topology=component("gnp_degree", degree=7),
        rounds=8,
        seeds=seeds,
        metrics=(),
        name=f"shm-{algorithm}",
    )


def _segments_on_disk():
    return sorted(x for x in os.listdir("/dev/shm") if x.startswith("repro-shm-"))


class TestPublishAttach:
    def test_round_trip_is_content_identical(self):
        built = cached_base_topology("gnp_degree", {"degree": 20}, 200, 7)
        key = shm.topology_key("gnp_degree", {"degree": 20}, 200, 7)
        with shm.SharedTopologyPool() as pool:
            assert pool.publish(key, built, 200)
            # a fresh worker: local caches empty, registry inherited via env
            shm._ATTACHED.clear()
            shm._UNIVERSE_CACHE.clear()
            topology_cache_clear()
            attached = cached_base_topology("gnp_degree", {"degree": 20}, 200, 7)
            assert attached is not built
            assert attached.nodes == built.nodes
            assert attached.adjacency() == built.adjacency()
            # iteration order too: targeted-mis iterates neighbors(v)
            assert list(attached.edges) == list(built.edges)
            for v in built.nodes:
                assert list(attached.neighbors(v)) == list(built.neighbors(v))
            assert shm.shm_info()["attach_hits"] == 1

    def test_attach_primes_zero_copy_universe(self):
        built = cached_base_topology("gnp_degree", {"degree": 15}, 150, 3)
        key = shm.topology_key("gnp_degree", {"degree": 15}, 150, 3)
        with shm.SharedTopologyPool() as pool:
            assert pool.publish(key, built, 150)
            shm._ATTACHED.clear()
            shm._UNIVERSE_CACHE.clear()
            attached = shm.attach_topology(key)
            edges = tuple(sorted(attached.edges))
            universe = shm.shared_edge_universe(150, edges)
            assert not universe.usrc.flags.writeable  # shm-mapped view
            reference = EdgeUniverse(150, edges)
            for field in ("eu", "ev", "usrc", "udst", "uedge", "indptr"):
                np.testing.assert_array_equal(
                    getattr(universe, field), getattr(reference, field)
                )

    def test_inexact_build_publishes_the_universe_only(self):
        # random_geometric inserts edges in frozenset order, which from_arrays
        # cannot replay: workers regenerate it but still map its universe
        built = cached_base_topology("random_geometric", {}, 120, 4)
        key = shm.topology_key("random_geometric", {}, 120, 4)
        with shm.SharedTopologyPool() as pool:
            assert pool.publish(key, built, 120)
            shm._ATTACHED.clear()
            shm._UNIVERSE_CACHE.clear()
            assert shm.attach_topology(key) is None
            universe = shm.shared_edge_universe(120, built.sorted_edges())
            assert not universe.usrc.flags.writeable
            assert shm.shm_info()["attach_hits"] == 0

    def test_unregistered_key_attaches_nothing(self):
        assert shm.attach_topology("deadbeefdeadbeef") is None

    def test_universe_cache_hits_on_equal_content(self):
        edges = ((0, 1), (1, 2))
        first = shm.shared_edge_universe(3, edges)
        second = shm.shared_edge_universe(3, ((0, 1), (1, 2)))  # fresh tuple
        assert first is second

    def test_close_unlinks_and_clears_registry(self):
        built = cached_base_topology("gnp_degree", {"degree": 10}, 100, 1)
        key = shm.topology_key("gnp_degree", {"degree": 10}, 100, 1)
        pool = shm.SharedTopologyPool()
        assert pool.publish(key, built, 100)
        assert _segments_on_disk()
        pool.close()
        assert not _segments_on_disk()
        assert key not in shm._registry()


class TestRunnerIntegration:
    def test_publish_for_chunks_selects_shared_topologies(self):
        # two specs share topology+seeds => shared keys; a third spec with a
        # disjoint seed is unique and must not be published
        units = (
            units_for_spec(_spec("smis"))
            + units_for_spec(_spec("dmis"))
            + units_for_spec(_spec("scolor", seeds=(9,)))
        )
        pool = shm.publish_for_chunks(build_chunks(units, 2))
        assert pool is not None
        try:
            assert pool.segments == 2  # seeds 1 and 2, shared by smis+dmis
            unique = shm.topology_key("gnp_degree", {"degree": 7}, 48, 9)
            assert unique not in shm._registry()
        finally:
            pool.close()

    def test_pooled_rows_byte_identical_and_segments_released(self):
        units = units_for_spec(_spec("smis")) + units_for_spec(_spec("dmis"))
        serial_rows = run_units(units, ExecutionPolicy(backend="serial", progress=False))
        pooled_rows = run_units(
            units, ExecutionPolicy(backend="process", max_workers=2, progress=False)
        )
        assert json.dumps(serial_rows, sort_keys=True) == json.dumps(
            pooled_rows, sort_keys=True
        )
        assert not _segments_on_disk()
        assert not shm._registry()


def _spawn_pool(monkeypatch):
    """Make the process backend start its workers with ``spawn``.

    Forked workers inherit the runner's topology cache and never attach a
    segment; spawned ones (the macOS/Windows default) always do.
    """
    context = multiprocessing.get_context("spawn")
    monkeypatch.setattr(
        backends, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=context)
    )


class TestStartMethods:
    # gnp is rebuilt from its arrays; random_geometric's build order is not
    # reproducible, so its segment carries the edge universe only.
    @pytest.mark.parametrize(
        "topology",
        [component("gnp_degree", degree=8), component("random_geometric")],
        ids=["gnp_degree", "random_geometric"],
    )
    def test_spawned_workers_match_serial_rows(self, monkeypatch, topology):
        # targeted-mis iterates base.neighbors(v) before it shuffles, so an
        # attached topology must iterate like a local build, not only equal
        # it.  The static spec shares the base graph, so it gets published.
        base = ScenarioSpec(
            n=64,
            algorithm=component("smis"),
            adversary=component("targeted-mis"),
            topology=topology,
            rounds="2*T1",
            seeds=(0, 1),
            metrics=(component("stability"),),
            name="shm-spawn",
        )
        units = units_for_spec(base) + units_for_spec(
            base.with_overrides({"adversary": {"name": "static", "params": {}}})
        )
        serial_rows = run_units(units, ExecutionPolicy(backend="serial", progress=False))
        _spawn_pool(monkeypatch)
        pooled_rows = run_units(
            units, ExecutionPolicy(backend="process", max_workers=2, progress=False)
        )
        assert json.dumps(pooled_rows, sort_keys=True) == json.dumps(serial_rows, sort_keys=True)


class TestAuditRepair:
    def _fake_dead_segment(self):
        from multiprocessing import shared_memory

        # pid 2**22+5 is above the default pid_max: guaranteed dead
        name = f"repro-shm-{2**22 + 5}-feedfacefeedface"
        segment = shared_memory.SharedMemory(name=name, create=True, size=64)
        segment.close()
        return name

    def test_stale_segment_is_found_and_unlinked(self):
        name = self._fake_dead_segment()
        try:
            assert name in shm.stale_segments()
            live = f"repro-shm-{os.getpid()}-0123456789abcdef"
            assert live not in shm.stale_segments()
        finally:
            removed = shm.unlink_stale_segments()
        assert name in removed
        assert name not in _segments_on_disk()

    def test_audit_reports_stale_shm(self, tmp_path):
        from repro.scenarios.audit import audit_store

        name = self._fake_dead_segment()
        try:
            findings = audit_store(tmp_path)
            stale = [f for f in findings if f.category == "stale-shm"]
            assert any(name in f.path for f in stale)
        finally:
            shm.unlink_stale_segments()
