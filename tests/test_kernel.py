"""The array-native round kernel (vectorized compose/deliver/output).

Hard gates of the kernel PR:

* the kernel delivery path produces **byte-identical trace rows** to the
  authoritative full path for every kernel-capable algorithm × every
  registered adversary (the array engine when the adversary ships a
  :class:`KernelPlan`; a plan-less adversary degrades to incremental);
* the ``delivery-equivalence`` contract of ``repro verify`` catches a
  kernel whose semantics drift from the python algorithm it claims to mirror;
* kernel selection honours the eligibility rules (a kernel and a plan, no
  input vector, explicit requests degrade — never silently corrupt);
* the stacked ``Concat`` kernel sizes bundles like ``estimate_bits`` and
  writes back the combiner's post-run state;
* the satellites: quiescence-aware churn skipping is observationally
  invisible, every plan's presence masks reproduce the classic ``step``
  topologies round by round, the edge-universe CSR layout enumerates every
  row in ascending-neighbor order, and the numpy floor is enforced at import
  time and consistent with ``pyproject.toml``.
"""

import pathlib
import tomllib

import numpy as np
import pytest

import repro.kernel as kernel_pkg
from repro.errors import ConfigurationError
from repro.dynamics import generators
from repro.dynamics.adversaries.scripted import StaticAdversary
from repro.dynamics.churn import MarkovEdgeChurn, StaticChurn
from repro.kernel import EdgeUniverse
from repro.kernel.mis import SMisKernel
from repro.runtime.algorithm import DistributedAlgorithm
from repro.runtime.simulator import Simulator
from repro.scenarios import ScenarioSpec, component, run_scenario
from repro.scenarios.cli import main
from repro.scenarios.executor import _build_context
from repro.verify.harness import run_verify

from test_incremental_delivery import SPARSE_GNP, _ADVERSARY_SPECS, _scenario_tree, _trace_rows

#: the algorithms that ship a hand-vectorised kernel (``as_kernel()``).
KERNEL_ALGORITHMS = (
    "basic-coloring",
    "scolor",
    "scolor-no-uncolor",
    "smis",
    "smis-no-undecide",
    "dcolor",
    "dmis",
    "dynamic-coloring",
    "dynamic-mis",
)

#: the adversaries that ship a :class:`KernelPlan` (the others degrade).
PLAN_ADVERSARIES = {"static", "markov-churn", "flip-churn"}


# ---------------------------------------------------------------------------
# kernel × adversary equivalence matrix
# ---------------------------------------------------------------------------


class TestKernelEquivalenceMatrix:
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    def test_kernel_and_full_rows_identical(self, algorithm):
        """Every kernel algorithm × every registered adversary: byte-identical.

        Forcing ``delivery="kernel"`` runs the array engine exactly for the
        plan-capable adversaries and degrades to incremental (full for an
        algorithm without the pure contract) for the rest.
        """
        for adversary in sorted(_ADVERSARY_SPECS):
            spec = ScenarioSpec(
                n=16,
                algorithm=algorithm,
                adversary=_ADVERSARY_SPECS[adversary],
                topology=SPARSE_GNP,
                rounds=12,
            )
            full_rows, _ = _trace_rows(spec, seed=7, mode="full")
            kernel_rows, sim = _trace_rows(spec, seed=7, mode="kernel")
            fallback = "incremental" if sim.algorithm.message_stability == "pure" else "full"
            expected = "kernel" if adversary in PLAN_ADVERSARIES else fallback
            assert sim.delivery == expected, f"{algorithm} × {adversary} ran {sim.delivery}"
            assert kernel_rows == full_rows, (
                f"kernel delivery diverged for {algorithm} × {adversary}"
            )

    @pytest.mark.parametrize("wakeup", ["staggered", "uniform-random"])
    def test_equivalence_under_async_wakeup(self, wakeup):
        for algorithm in KERNEL_ALGORITHMS:
            spec = ScenarioSpec(
                n=24,
                algorithm=algorithm,
                adversary=component("flip-churn", flip_prob=0.08),
                topology=SPARSE_GNP,
                rounds=20,
                wakeup=wakeup,
            )
            full_rows, _ = _trace_rows(spec, seed=2, mode="full")
            kernel_rows, _ = _trace_rows(spec, seed=2, mode="kernel")
            assert kernel_rows == full_rows

    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    def test_chunked_runs_match_single_run(self, algorithm):
        """``run(1)`` in a loop must equal one ``run(12)`` on the kernel path."""
        spec = ScenarioSpec(
            n=16,
            algorithm=algorithm,
            adversary=component("markov-churn", p_off=0.05, p_on=0.05),
            topology=SPARSE_GNP,
            rounds=12,
        )
        whole_rows, _ = _trace_rows(spec, seed=3, mode="kernel")
        ctx = _build_context(spec, 3)
        sim = Simulator(
            n=ctx.n,
            algorithm=ctx.algorithm,
            adversary=ctx.adversary,
            seed=ctx.seed,
            delivery="kernel",
        )
        for _ in range(ctx.rounds):
            sim.run(1)
        chunk_rows = [
            (
                record.round_index,
                record.topology.nodes,
                record.topology.edges,
                dict(record.outputs),
                record.metrics.as_dict(),
            )
            for record in sim.trace
        ]
        assert chunk_rows == whole_rows

    @pytest.mark.parametrize("algorithm", ["basic-coloring", "scolor"])
    def test_palette_probe_rows_identical(self, algorithm):
        """A probe reading ``palette_of`` every round sees the classic palettes.

        E2's ``palette-shrink`` compares a node's palette before and after
        each round, including the round it adopts a color.
        """
        rows = {}
        for mode in ("full", "kernel"):
            spec = ScenarioSpec(
                n=32,
                algorithm=algorithm,
                adversary=component("flip-churn", flip_prob=0.05),
                topology="gnp_sparse",
                rounds=20,
                seeds=(0, 1),
                probe="palette-shrink",
                delivery=mode,
            )
            rows[mode] = run_scenario(spec).rows
        assert rows["kernel"] == rows["full"]

    @pytest.mark.parametrize("algorithm", ["scolor", "dynamic-coloring"])
    def test_post_run_palettes_match_the_full_run(self, algorithm):
        """After a run every node's palette is the one its last delivery left.

        That includes coloured nodes, whose palettes the kernel does not need
        between rounds; DynamicColoring's is its SColor backbone's.
        """
        spec = ScenarioSpec(
            n=64,
            algorithm=algorithm,
            adversary=component("flip-churn", flip_prob=0.01),
            topology=component("gnp_degree", degree=8),
            rounds=112,
        )
        palettes = {}
        for mode in ("full", "kernel"):
            _, sim = _trace_rows(spec, seed=0, mode=mode)
            assert sim.delivery == mode
            alg = sim.algorithm if algorithm == "scolor" else sim.algorithm._salg
            palettes[mode] = {v: alg.palette_of(v) for v in range(spec.n)}
        assert palettes["kernel"] == palettes["full"]

    def test_dmis_post_run_introspection_matches_the_full_run(self):
        """The standalone DMis kernel writes back the full path's per-node state.

        Staggered wake-up makes nodes join the live sets after round 1 (one
        batch of eight per round, the last batch still asleep), and flip
        churn shrinks them.
        """
        spec = ScenarioSpec(
            n=40,
            algorithm="dmis",
            adversary=component("flip-churn", flip_prob=0.05),
            topology=component("gnp_degree", degree=6),
            rounds=4,
            wakeup=component("staggered", batch_size=8),
        )
        views = {}
        for mode in ("full", "kernel"):
            _, sim = _trace_rows(spec, seed=4, mode=mode)
            assert sim.delivery == mode
            alg = sim.algorithm
            views[mode] = (
                {v: alg.state_of(v) for v in range(spec.n)},
                {v: alg.live_neighbors_of(v) for v in range(spec.n)},
                alg.undecided_count(),
                # the node streams resume where the run left them
                {v: alg.rng(v).random() for v in sorted(alg.awake_nodes)},
            )
        assert views["kernel"] == views["full"]
        kernel_states, kernel_live, undecided, streams = views["kernel"]
        assert undecided > 0 and len(streams) == 32
        assert any(kernel_live.values())
        assert len(set(kernel_states.values())) == 3

    def test_dcolor_post_run_introspection_matches_the_full_run(self):
        """The standalone DColor kernel writes back the full path's per-node state.

        Staggered wake-up makes nodes join the live sets and start their
        palettes after round 1 (one batch of eight per round, the last batch
        still asleep), and flip churn shrinks the live sets.
        """
        spec = ScenarioSpec(
            n=40,
            algorithm="dcolor",
            adversary=component("flip-churn", flip_prob=0.05),
            topology=component("gnp_degree", degree=6),
            rounds=4,
            wakeup=component("staggered", batch_size=8),
        )
        views = {}
        for mode in ("full", "kernel"):
            _, sim = _trace_rows(spec, seed=4, mode=mode)
            assert sim.delivery == mode
            alg = sim.algorithm
            views[mode] = (
                {v: alg.palette_of(v) for v in range(spec.n)},
                {v: alg.live_neighbors_of(v) for v in range(spec.n)},
                dict(alg._tentative),
                alg.metrics()["uncolored"],
                # the node streams resume where the run left them
                {v: int(alg.rng(v).integers(0, 2**30)) for v in sorted(alg.awake_nodes)},
            )
        assert views["kernel"] == views["full"]
        palettes, live, tentative, uncolored, streams = views["kernel"]
        assert uncolored > 0 and len(streams) == 32
        assert any(live.values()) and any(palettes.values())
        assert any(t is not None for t in tentative.values())


# ---------------------------------------------------------------------------
# the stacked Concat kernel (DynamicColoring)
# ---------------------------------------------------------------------------


class TestConcatColoringKernel:
    def test_closed_form_bits_equal_estimate_bits_on_the_dict_bundle(self):
        from repro.algorithms.coloring import dcolor, scolor
        from repro.kernel import coloring as coloring_kernel
        from repro.kernel import concat as concat_kernel
        from repro.runtime.messages import estimate_bits

        codes = {
            dcolor.INIT: coloring_kernel._T_INIT,
            dcolor.FIXED: coloring_kernel._T_FIXED,
            dcolor.TENTATIVE: coloring_kernel._T_TENT,
        }
        rng = np.random.default_rng(29)
        top = 2**20
        for trial in range(300):
            starts = sorted({int(r) for r in rng.integers(1, top + 1, size=int(rng.integers(1, 40)))})
            if trial == 0:
                starts = [1, 2, 3, top - 1, top]
            names = [list(codes)[int(i)] for i in rng.integers(0, 3, size=len(starts))]
            values = [
                None if name != dcolor.FIXED and rng.random() < 0.3 else int(rng.integers(1, top + 1))
                for name in names
            ]
            backbone = (
                (scolor.FIXED, int(rng.integers(1, top + 1)))
                if rng.random() < 0.5
                else (scolor.TENTATIVE, None if rng.random() < 0.3 else int(rng.integers(1, top + 1)))
            )
            bundle = {"s": backbone, **{r: (name, value) for r, name, value in zip(starts, names, values)}}
            tag = np.asarray([codes[name] for name in names], dtype=np.int64)
            val = np.asarray([-1 if value is None else value for value in values], dtype=np.int64)
            per_message = coloring_kernel.dcolor_message_bits(tag, val)
            assert per_message.tolist() == [estimate_bits(m) for m in zip(names, values)]
            assert estimate_bits(bundle) == (
                concat_kernel.bundle_frame_bits(starts)
                + estimate_bits(backbone)
                + int(per_message.sum())
            )

    def test_post_run_introspection_matches_the_full_run(self):
        spec = ScenarioSpec(
            n=40,
            algorithm="dynamic-coloring",
            adversary=component("flip-churn", flip_prob=0.05),
            topology=component("gnp_degree", degree=6),
            rounds="2*T1",
            wakeup="staggered",
        )
        views = {}
        for mode in ("full", "kernel"):
            _, sim = _trace_rows(spec, seed=4, mode=mode)
            assert sim.delivery == mode
            alg = sim.algorithm
            instances = {
                start: (
                    instance.outputs(),
                    {v: instance.palette_of(v) for v in range(spec.n)},
                    {v: instance.live_neighbors_of(v) for v in range(spec.n)},
                    dict(instance.metrics()),
                    instance.config.input,
                    # each instance's streams resume where the run left them
                    {v: int(instance.rng(v).integers(0, 2**30)) for v in sorted(instance.awake_nodes)},
                )
                for start, instance in alg._instances.items()
            }
            views[mode] = (
                alg.outputs(),
                {v: alg.backbone_output(v) for v in range(spec.n)},
                alg.state_summary(),
                alg.live_instances,
                instances,
            )
        assert views["kernel"] == views["full"]
        assert views["kernel"][3] == spec.resolved_window() - 1


# ---------------------------------------------------------------------------
# the stacked Concat kernel (DynamicMIS)
# ---------------------------------------------------------------------------


class TestConcatMisKernel:
    def test_closed_form_bits_equal_estimate_bits_on_the_dict_bundle(self):
        from repro.algorithms.mis import dmis, smis
        from repro.kernel import concat as concat_kernel
        from repro.kernel import mis as mis_kernel
        from repro.runtime.messages import estimate_bits

        def dmis_message(state):
            if state == mis_kernel._S_UND:
                return (dmis.RAND, float(rng.random()))
            return (dmis.MARK,) if state == mis_kernel._S_MIS else None

        rng = np.random.default_rng(30)
        top = 2**20
        for trial in range(300):
            starts = sorted({int(r) for r in rng.integers(1, top + 1, size=int(rng.integers(1, 40)))})
            if trial == 0:
                starts = [1, 2, 3, top - 1, top]
            states = rng.integers(0, 3, size=len(starts))
            messages = [dmis_message(state) for state in states.tolist()]
            backbone = [
                (smis.MARK,),
                None,
                (smis.UNDECIDED_MSG, float(rng.random()), bool(rng.random() < 0.5)),
            ][int(rng.integers(0, 3))]
            bundle = {"s": backbone, **dict(zip(starts, messages))}
            per_message = mis_kernel.dmis_message_bits(states)
            assert per_message.tolist() == [estimate_bits(m) for m in messages]
            assert estimate_bits(bundle) == (
                concat_kernel.bundle_frame_bits(starts)
                + estimate_bits(backbone)
                + int(per_message.sum())
            )

    def test_post_run_introspection_matches_the_full_run(self):
        spec = ScenarioSpec(
            n=40,
            algorithm="dynamic-mis",
            adversary=component("flip-churn", flip_prob=0.05),
            topology=component("gnp_degree", degree=6),
            rounds="2*T1",
            wakeup="staggered",
        )
        views = {}
        for mode in ("full", "kernel"):
            _, sim = _trace_rows(spec, seed=4, mode=mode)
            assert sim.delivery == mode
            alg = sim.algorithm
            instances = {
                start: (
                    instance.outputs(),
                    {v: instance.state_of(v) for v in range(spec.n)},
                    {v: instance.live_neighbors_of(v) for v in range(spec.n)},
                    dict(instance.metrics()),
                    instance.config.input,
                    # each instance's streams resume where the run left them
                    {v: instance.rng(v).random() for v in sorted(instance.awake_nodes)},
                )
                for start, instance in alg._instances.items()
            }
            views[mode] = (
                alg.outputs(),
                {v: alg.backbone_output(v) for v in range(spec.n)},
                alg.state_summary(),
                alg.live_instances,
                instances,
                {v: alg._salg.rng(v).random() for v in sorted(alg.awake_nodes)},
            )
        assert views["kernel"] == views["full"]
        assert views["kernel"][3] == spec.resolved_window() - 1
        # staggered wake-up: some live instance started before a node woke
        inputs = [view[4] for view in views["kernel"][4].values()]
        assert any(len(given) < spec.n for given in inputs)


# ---------------------------------------------------------------------------
# kernel selection + spec knob
# ---------------------------------------------------------------------------


class _PureNoKernel(DistributedAlgorithm):
    """Pure contract but no ``as_kernel`` — must stay on incremental."""

    name = "pure-no-kernel"
    message_stability = "pure"

    def on_wake(self, v):
        pass

    def compose(self, v):
        return None

    def compose_fingerprint(self, v):
        return None

    def deliver(self, v, inbox):
        pass

    def output(self, v):
        return 0


class TestKernelSelection:
    def _sim(self, algorithm, **kwargs):
        return Simulator(
            n=4, algorithm=algorithm, adversary=StaticAdversary(generators.ring(4)), **kwargs
        )

    def test_explicit_kernel_degrades_without_a_kernel(self):
        # Pure algorithm without as_kernel: incremental, not an error.
        assert self._sim(_PureNoKernel(), delivery="kernel").delivery == "incremental"

        class Legacy(_PureNoKernel):
            message_stability = "none"

        # No purity contract: the kernel may not skip anything — full path.
        assert self._sim(Legacy(), delivery="kernel").delivery == "full"

    def test_input_vector_disables_the_kernel(self):
        from repro.algorithms.mis.smis import SMis

        assert self._sim(SMis(), delivery="kernel").delivery == "kernel"
        # Kernels initialise wake state vectorised for the ⊥-input case only.
        sim = self._sim(SMis(), delivery="kernel", input_assignment={0: 1})
        assert sim.delivery == "incremental"

    def test_a_kernel_needs_no_pure_contract(self):
        from repro.algorithms.coloring.dynamic_coloring import DynamicColoring

        # Concat declares no message stability: the kernel path runs it on
        # dense every-node rounds, and everything else falls back to full.
        assert DynamicColoring(4).message_stability == "none"
        assert self._sim(DynamicColoring(4)).delivery == "kernel"
        assert self._sim(DynamicColoring(4), delivery="kernel").delivery == "kernel"
        assert self._sim(DynamicColoring(4), delivery="incremental").delivery == "full"
        sim = self._sim(DynamicColoring(4), delivery="kernel", input_assignment={0: 1})
        assert sim.delivery == "full"
        # DynamicMIS runs on its ring kernel; the revalidation extension has
        # no kernel and stays on full
        from repro.algorithms.mis.dynamic_mis import DynamicMIS

        assert self._sim(DynamicMIS(4)).delivery == "kernel"
        assert self._sim(DynamicMIS(4), delivery="kernel").delivery == "kernel"
        assert DynamicMIS(4, revalidate_dominated=True).as_kernel() is None
        revalidating = DynamicMIS(4, revalidate_dominated=True)
        assert self._sim(revalidating, delivery="kernel").delivery == "full"

    def test_spec_rejects_bogus_delivery(self):
        with pytest.raises(ConfigurationError, match="delivery"):
            ScenarioSpec(n=8, algorithm="smis", delivery="vectorized")

    def test_spec_delivery_round_trips_and_reaches_the_simulator(self):
        from repro.scenarios.executor import _execute_seed

        base = ScenarioSpec(
            n=12,
            algorithm="smis",
            adversary=component("markov-churn", p_off=0.05, p_on=0.05),
            rounds=3,
        )
        assert base.to_dict()["delivery"] is None
        assert base.replace(delivery="kernel").to_dict()["delivery"] == "kernel"
        for requested, adversary, expected in (
            (None, base.adversary, "kernel"),  # auto: markov-churn ships a KernelPlan
            ("full", base.adversary, "full"),
            ("incremental", base.adversary, "incremental"),
            ("kernel", base.adversary, "kernel"),
            ("kernel", _ADVERSARY_SPECS["mobility"], "incremental"),  # no KernelPlan
        ):
            spec = base.replace(delivery=requested, adversary=adversary)
            _, sim = _execute_seed(spec, 0)
            assert sim.delivery == expected, f"delivery={requested!r} × {adversary.name}"

    @pytest.mark.parametrize("adversary", sorted(_ADVERSARY_SPECS))
    def test_kernel_runs_exactly_when_the_adversary_ships_a_plan(self, adversary):
        """``auto`` and ``kernel`` pick the array engine iff a valid plan exists."""
        spec = ScenarioSpec(
            n=12, algorithm="smis", adversary=_ADVERSARY_SPECS[adversary], rounds=1
        )
        ctx = _build_context(spec, 0)
        plan = ctx.adversary.kernel_plan()
        assert (plan is not None) == (adversary in PLAN_ADVERSARIES)
        if plan is not None:
            assert plan.validate(ctx.n)
        expected = "kernel" if plan is not None else "incremental"
        for requested in ("auto", "kernel"):
            sim = Simulator(
                n=ctx.n, algorithm=ctx.algorithm, adversary=ctx.adversary, delivery=requested
            )
            assert sim.delivery == expected, f"delivery={requested!r}"


# ---------------------------------------------------------------------------
# the delivery-equivalence contract catches drifting kernels
# ---------------------------------------------------------------------------


class TestKernelVerificationHarness:
    def _configs(self, tmp_path):
        spec = ScenarioSpec(
            n=12,
            algorithm="smis",
            adversary=component("markov-churn", p_off=0.05, p_on=0.05),
            rounds=10,
            seeds=(0, 1),
            delivery="kernel",
            metrics=("trace-summary",),
            name="smis-kernel",
        )
        return _scenario_tree(tmp_path, spec)

    def test_contract_catches_a_broken_kernel(self, monkeypatch, tmp_path):
        # A kernel that silently drops every delivery drifts from the python
        # SMis semantics; the contract must blame the kernel path.
        monkeypatch.setattr(SMisKernel, "deliver", lambda *args, **kwargs: None)
        configs = self._configs(tmp_path)
        verdicts = run_verify(contracts=["delivery-equivalence"], configs_dir=configs)
        status = {verdict.case: verdict for verdict in verdicts}
        assert status["smis-kernel:incremental"].status == "pass"
        assert status["smis-kernel:kernel"].status == "fail"
        assert "array kernel diverges" in status["smis-kernel:kernel"].detail
        argv = ["verify", "--contracts", "delivery-equivalence", "--configs", str(configs)]
        assert main([*argv, "--no-store"]) == 1

    def test_contract_passes_the_honest_kernels(self, tmp_path):
        verdicts = run_verify(
            contracts=["delivery-equivalence"], configs_dir=self._configs(tmp_path)
        )
        assert [v.status for v in verdicts if v.case.startswith("smis-kernel:")] == [
            "pass",
            "pass",
        ]


# ---------------------------------------------------------------------------
# quiescence-aware churn skipping is observationally invisible
# ---------------------------------------------------------------------------


class TestQuiescence:
    def test_static_churn_quiescent_after_priming(self):
        churn = StaticChurn(generators.ring(6))
        assert not churn.quiescent()
        churn.step_delta(1, np.random.default_rng(0))
        assert churn.quiescent()
        churn.reset()
        assert not churn.quiescent()

    def test_markov_churn_quiescent_only_when_absorbing(self):
        base = generators.ring(6)
        rng = np.random.default_rng(0)
        frozen = MarkovEdgeChurn(base, p_off=0.0, p_on=0.0)
        assert not frozen.quiescent()  # the priming delta is still owed
        frozen.step_delta(1, rng)
        assert frozen.quiescent()
        live = MarkovEdgeChurn(base, p_off=0.2, p_on=0.2)
        live.step_delta(1, rng)
        assert not live.quiescent()

    @pytest.mark.parametrize("mode", ["full", "incremental", "kernel"])
    def test_skip_is_invisible_in_the_trace(self, mode, monkeypatch):
        """Skipping the RNG draw of an absorbed process must not change rows."""
        specs = [
            ScenarioSpec(n=16, algorithm="smis", adversary=adversary, topology=SPARSE_GNP, rounds=10)
            for adversary in (
                component("static"),
                component("markov-churn", p_off=0.0, p_on=0.0),
                component("markov-churn", p_off=0.05, p_on=0.05),
            )
        ]
        draws = []
        advance = MarkovEdgeChurn._advance

        def counted_advance(self, rng):
            draws.append(1)
            return advance(self, rng)

        monkeypatch.setattr(MarkovEdgeChurn, "_advance", counted_advance)
        skipped_rows = [_trace_rows(spec, seed=5, mode=mode)[0] for spec in specs]
        skipped_draws = len(draws)
        # The "stepped" run: no process ever reports quiescent.
        monkeypatch.setattr(StaticChurn, "quiescent", lambda self: False)
        monkeypatch.setattr(MarkovEdgeChurn, "quiescent", lambda self: False)
        stepped_rows = [_trace_rows(spec, seed=5, mode=mode)[0] for spec in specs]
        # The frozen Markov chain draws once, then is skipped for 9 rounds.
        assert len(draws) - skipped_draws == skipped_draws + 9
        assert skipped_rows == stepped_rows


# ---------------------------------------------------------------------------
# CSR structures: the static edge-universe layout
# ---------------------------------------------------------------------------


class TestCSRProperties:
    """The edge-universe CSR layout the array engine gathers rows from."""

    @pytest.mark.parametrize("wakeup", [None, "staggered"])
    @pytest.mark.parametrize("topology", ["gnp_sparse", "ring", "random_geometric"])
    @pytest.mark.parametrize("adversary", sorted(PLAN_ADVERSARIES))
    def test_plan_masks_match_the_step_stream(self, adversary, topology, wakeup):
        """Presence masks over the universe, cut to awake nodes, == ``step`` topologies."""
        spec = ScenarioSpec(
            n=20,
            algorithm="smis",
            adversary=_ADVERSARY_SPECS[adversary],
            topology=topology,
            rounds=10,
            wakeup=wakeup,
        )
        _, sim = _trace_rows(spec, seed=11, mode="full")
        plan = _build_context(spec, 11).adversary.kernel_plan()
        universe = np.asarray(plan.universe_edges, dtype=np.int64).reshape(-1, 2)
        awake = set()
        for record in sim.trace:
            r = record.round_index
            if plan.wakeup is None:
                current = set(plan.nodes)
            else:
                current = set(plan.wakeup.awake_at(r)) & plan.nodes
            awake = awake | current
            present = universe[plan.advance(r)].tolist()
            edges = {(u, v) for u, v in present if u in awake and v in awake}
            assert set(record.topology.nodes) == awake, f"round {r}"
            assert set(record.topology.edges) == edges, f"round {r}"

    def test_edge_universe_row_slots(self):
        topo = generators.gnp(16, 0.3, np.random.default_rng(9))
        edges = tuple(sorted(topo.edges))
        universe = EdgeUniverse(16, edges)
        assert universe.m == len(edges)
        ids = np.asarray([0, 3, 7, 15], dtype=np.int64)
        slots, seg = universe.row_slots(ids)
        # every slot belongs to the row it is segmented into...
        assert np.array_equal(universe.usrc[slots], ids[seg])
        # ...rows enumerate neighbors ascending, matching the topology...
        for j, v in enumerate(ids.tolist()):
            row = universe.udst[slots[seg == j]]
            assert row.tolist() == sorted(topo.neighbors(v))
        # ...and uedge maps each slot back to its canonical universe edge.
        for s in slots.tolist():
            u, w = int(universe.usrc[s]), int(universe.udst[s])
            assert edges[int(universe.uedge[s])] == (min(u, w), max(u, w))

    def test_edge_universe_degenerate(self):
        universe = EdgeUniverse(5, ())
        slots, seg = universe.row_slots(np.asarray([0, 4], dtype=np.int64))
        assert slots.size == 0 and seg.size == 0
        assert universe.indptr.tolist() == [0] * 6


# ---------------------------------------------------------------------------
# numpy floor
# ---------------------------------------------------------------------------


class TestNumpyFloor:
    def test_current_numpy_passes(self):
        kernel_pkg._check_numpy_version()

    def test_old_numpy_is_rejected(self, monkeypatch):
        monkeypatch.setattr(np, "__version__", "1.24.3")
        with pytest.raises(ImportError, match="numpy>="):
            kernel_pkg._check_numpy_version()

    def test_floor_matches_pyproject(self):
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        floor = ".".join(str(part) for part in kernel_pkg._REQUIRED_NUMPY)
        assert f"numpy>={floor}" in deps


# ---------------------------------------------------------------------------
# the activity surface on the kernel path
# ---------------------------------------------------------------------------


class TestKernelActivity:
    def test_lazy_activity_reports_the_kernel_round(self):
        spec = ScenarioSpec(
            n=16,
            algorithm="smis",
            adversary=component("markov-churn", p_off=0.05, p_on=0.05),
            topology=SPARSE_GNP,
            rounds=5,
        )
        ctx = _build_context(spec, 4)
        sim = Simulator(
            n=ctx.n,
            algorithm=ctx.algorithm,
            adversary=ctx.adversary,
            seed=ctx.seed,
            delivery="kernel",
        )
        sim.run(3)
        activity = sim.last_round_activity
        assert activity.mode == "kernel"
        assert activity.round_index == 3
        # repeated reads return the same object
        assert sim.last_round_activity is activity
        # outputs can only change for nodes that were delivered to
        assert activity.changed_outputs <= activity.delivered
        assert sim.trace.metrics(3).outputs_changed == len(activity.changed_outputs)
        sim.run(1)
        assert sim.last_round_activity.round_index == 4
