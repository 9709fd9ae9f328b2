"""The vectorized per-node RNG pool must be bit-identical to ``default_rng``.

The kernels' per-node random draws are contractually
``default_rng(derive_seed(factory_seed, "node", alg_name, v)).random()``
streams (that is what :meth:`DistributedAlgorithm.rng` hands out, and what
the kernel-vs-full byte-identity gates compare through the produced traces).
:class:`~repro.kernel.nodestreams.NodeStreamPool` reimplements SeedSequence
entropy mixing + PCG64 in vectorized numpy; these tests pin it to the numpy
implementation draw by draw, and check the draw-count handoff that lets
``alg.rng(v)`` resume a node's stream after a kernel run.
"""

import numpy as np
import pytest

from repro.kernel import nodestreams
from repro.kernel.nodestreams import NodeStreamPool, derive_node_seeds
from repro.utils.rng import derive_seed


class TestSeedDerivation:
    @pytest.mark.parametrize("master", [0, 1, 7, 2**31 - 1, 2**63 - 1])
    def test_matches_scalar_derive_seed(self, master):
        ids = np.arange(64, dtype=np.int64)
        batch = derive_node_seeds(master, "smis", ids)
        for v in ids.tolist():
            assert int(batch[v]) == derive_seed(master, "node", "smis", v)


class TestSeeding:
    def test_small_batches_seed_like_the_vectorised_path(self):
        """Both seeding paths give numpy's PCG64 state and increment, any seed."""
        rng = np.random.default_rng(31)
        seeds = np.concatenate(
            [
                rng.integers(0, 2**63, size=300, dtype=np.uint64),
                np.array([0, 1, 2**32 - 1, 2**32, 2**63 - 1], dtype=np.uint64),
            ]
        )
        vectorised = nodestreams._seed_states(seeds)
        scalar = nodestreams._seed_states_scalar(seeds)
        for got, want in zip(scalar, vectorised):
            np.testing.assert_array_equal(got, want)

    def test_rows_draw_their_own_master_seeds_streams(self):
        """Lane ``row * n + v`` is node ``v``'s stream under row ``row``'s seed."""
        n, masters = 6, (3, 41, 2**40 + 7)
        pool = NodeStreamPool(n, masters[0], "dmis", rows=3)
        for row, master in enumerate(masters[1:], start=1):
            pool.reset_row(row, master)
        lanes = np.arange(3 * n, dtype=np.int64)
        first, second = pool.random(lanes), pool.random(lanes[::2])
        for row, master in enumerate(masters):
            for v in range(n):
                gen = np.random.default_rng(derive_seed(master, "node", "dmis", v))
                lane = row * n + v
                assert first[lane] == gen.random()
                if lane % 2 == 0:
                    assert second[lane // 2] == gen.random()
        assert pool.draw_skips(1) == {v: 2 if (n + v) % 2 == 0 else 1 for v in range(n)}
        # a reused row starts its new master seed's streams from scratch
        pool.reset_row(1, 5)
        assert pool.draw_skips(1) == {}
        want = np.random.default_rng(derive_seed(5, "node", "dmis", 2)).random()
        assert pool.random(np.array([n + 2]))[0] == want


class TestStreamEquality:
    @pytest.mark.parametrize("master", [1, 17, 123456789, 2**62 + 3])
    @pytest.mark.parametrize("component", ["smis", "dmis"])
    def test_interleaved_draws_match_default_rng(self, master, component):
        """Arbitrary subset-draw patterns equal per-node Generator streams."""
        n = 50
        pool = NodeStreamPool(n, master, component)
        reference = {
            v: np.random.default_rng(derive_seed(master, "node", component, v))
            for v in range(n)
        }
        rng = np.random.default_rng(99)
        draws_per_node = {v: 0 for v in range(n)}
        for _ in range(12):
            ids = np.flatnonzero(rng.random(n) < 0.5).astype(np.int64)
            if not ids.size:
                continue
            got = pool.random(ids)
            want = np.array([reference[int(v)].random() for v in ids])
            np.testing.assert_array_equal(got, want)
            for v in ids.tolist():
                draws_per_node[v] += 1
        skips = pool.draw_skips()
        assert skips == {v: c for v, c in draws_per_node.items() if c}

    @pytest.mark.parametrize("size", [1, 7, 19, 20, 45])
    def test_small_batches_step_like_the_vectorised_path(self, size):
        """Batches below and above the python-int stepping cutoff draw numpy's values."""
        assert nodestreams._SCALAR_STEP_LANES == 20
        n, masters = 30, (8, 2**63 - 5)
        pool = NodeStreamPool(n, masters[0], "dmis", rows=2)
        pool.reset_row(1, masters[1])
        lanes = np.random.default_rng(size).permutation(2 * n)[:size].astype(np.int64)
        reference = {
            int(lane): np.random.default_rng(
                derive_seed(masters[lane // n], "node", "dmis", int(lane) % n)
            )
            for lane in lanes
        }
        for _ in range(3):
            got = pool.random(lanes)
            want = np.array([reference[int(lane)].random() for lane in lanes])
            np.testing.assert_array_equal(got, want)
        assert pool.draw_skips(1) == {int(x) - n: 3 for x in lanes if x >= n}

    def test_skip_equals_generator_fast_forward(self):
        """``gen.random(k)`` then ``gen.random()`` == k+1 single draws."""
        seed = derive_seed(5, "node", "smis", 3)
        a = np.random.default_rng(seed)
        b = np.random.default_rng(seed)
        singles = [a.random() for _ in range(6)]
        b.random(5)
        assert b.random() == singles[5]


class TestAlgorithmHandoff:
    def test_kernel_run_leaves_resumable_node_streams(self):
        """After a kernel run, ``alg.rng(v)`` continues where the pool left off."""
        from repro.dynamics import generators
        from repro.dynamics.adversaries.random_churn import ChurnAdversary
        from repro.dynamics.churn import MarkovEdgeChurn
        from repro.runtime.simulator import Simulator
        from repro.algorithms.mis.smis import SMis

        n, seed = 24, 11
        base = generators.gnp(n, 0.3, np.random.default_rng(seed))
        adversary = ChurnAdversary(
            n, MarkovEdgeChurn(base, p_off=0.2, p_on=0.2), np.random.default_rng(seed + 1)
        )
        sim = Simulator(n=n, algorithm=SMis(), adversary=adversary, seed=seed, delivery="kernel")
        sim.run(10)
        alg = sim.algorithm
        skips = dict(alg._node_rng_skips)
        assert skips, "a 10-round dense-churn smis run must have drawn node randomness"
        probe = sorted(skips)[0]
        expected_gen = np.random.default_rng(
            derive_seed(alg.config.rng_factory.seed, "node", alg.name, probe)
        )
        expected_gen.random(skips[probe])
        assert alg.rng(probe).random() == expected_gen.random()
