"""The ``trace_retention`` knob: O(#changes) stats traces vs full retention.

The contract of ``trace_retention="stats"`` is *observational equivalence*:
every lazy accessor — ``RoundRecord.outputs`` (replayed from per-round
update dicts), ``RoundRecord.changed``, ``RoundActivity``'s frozenset
views — returns exactly the values the eager full-retention trace stores,
for every delivery mode and every adversary, and the metric rows written to
the results store are byte-identical.  Only the memory shape may differ.
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.runtime.simulator import Simulator
from repro.runtime.trace import ExecutionTrace
from repro.scenarios import ScenarioSpec, component
from repro.scenarios.executor import _build_context, run_scenario_seed

from test_incremental_delivery import _ADVERSARY_SPECS

KERNEL_ALGORITHMS = ("basic-coloring", "scolor", "smis", "dmis")


def _spec(algorithm: str, adversary, *, n: int = 24, rounds: int = 12) -> ScenarioSpec:
    return ScenarioSpec(
        n=n,
        algorithm=component(algorithm),
        adversary=adversary,
        topology=component("gnp_degree", degree=6),
        rounds=rounds,
        seeds=(3,),
        metrics=(),
        name=f"retention-{algorithm}",
    )


def _rows(spec: ScenarioSpec, mode: str, retention: str):
    """Flattened comparable rows of one run under a forced delivery mode."""
    ctx = _build_context(spec, 3)
    sim = Simulator(
        n=ctx.n,
        algorithm=ctx.algorithm,
        adversary=ctx.adversary,
        seed=ctx.seed,
        trace_retention=retention,
        delivery=mode,
    )
    sim.run(ctx.rounds)
    return [
        (
            record.round_index,
            record.topology.nodes,
            record.topology.edges,
            dict(record.outputs),
            sorted(record.changed),
            record.metrics.as_dict(),
        )
        for record in sim.trace
    ]


class TestLazyEqualsEager:
    @pytest.mark.parametrize("algorithm", KERNEL_ALGORITHMS)
    @pytest.mark.parametrize("adversary_name", sorted(_ADVERSARY_SPECS))
    def test_stats_trace_matches_full_trace_on_kernel_path(self, algorithm, adversary_name):
        """kernel algorithm × plan-adversary matrix: lazy accessors == eager.

        ``delivery="kernel"`` exercises the array engine's ``record_stats``
        path for plan-capable adversaries and the degraded incremental path
        for the rest — both must replay to the values full retention stored
        eagerly.
        """
        spec = _spec(algorithm, _ADVERSARY_SPECS[adversary_name])
        assert _rows(spec, "kernel", "stats") == _rows(spec, "kernel", "full")

    @pytest.mark.parametrize("mode", ("full", "incremental"))
    def test_stats_trace_matches_on_classic_paths(self, mode):
        spec = _spec("smis", _ADVERSARY_SPECS["markov-churn"])
        assert _rows(spec, mode, "stats") == _rows(spec, mode, "full")

    def test_random_access_replay(self):
        """Out-of-order ``outputs`` access replays correctly from any base."""
        spec = _spec("dmis", _ADVERSARY_SPECS["flip-churn"], rounds=15)
        ctx = _build_context(spec, 3)
        stats_sim = Simulator(
            n=ctx.n,
            algorithm=ctx.algorithm,
            adversary=ctx.adversary,
            seed=ctx.seed,
            trace_retention="stats",
            delivery="kernel",
        )
        stats_sim.run(ctx.rounds)
        ctx2 = _build_context(spec, 3)
        full_sim = Simulator(
            n=ctx2.n,
            algorithm=ctx2.algorithm,
            adversary=ctx2.adversary,
            seed=ctx2.seed,
            delivery="kernel",
        )
        full_sim.run(ctx2.rounds)
        reference = {r.round_index: dict(r.outputs) for r in full_sim.trace}
        trace = stats_sim.trace
        for round_index in (15, 1, 8, 3, 14, 8, 2, 15):
            assert dict(trace.outputs(round_index)) == reference[round_index]


class TestStoreRowByteIdentity:
    def test_stats_retention_leaves_rows_byte_identical(self):
        """The knob may change trace memory, never the committed rows."""
        spec = ScenarioSpec(
            n=32,
            algorithm=component("smis"),
            adversary=component("markov-churn", p_off=0.1, p_on=0.1),
            topology=component("gnp_degree", degree=6),
            rounds=20,
            seeds=(5,),
            metrics=(
                component("stability"),
                component("validity", problem="mis"),
                component("output-activity"),
            ),
            name="retention-rows",
        )
        full_row = run_scenario_seed(spec, 5)
        stats_row = run_scenario_seed(spec.replace(trace_retention="stats"), 5)
        assert json.dumps(full_row, sort_keys=True) == json.dumps(stats_row, sort_keys=True)

    def test_to_dict_omits_default_retention(self):
        """Committed store keys predate the knob: ``None`` must not re-key."""
        spec = _spec("smis", _ADVERSARY_SPECS["static"])
        assert "trace_retention" not in spec.to_dict()
        explicit = spec.replace(trace_retention="stats")
        data = explicit.to_dict()
        assert data["trace_retention"] == "stats"
        assert ScenarioSpec.from_dict(data).trace_retention == "stats"


class TestValidation:
    def test_spec_rejects_unknown_retention(self):
        with pytest.raises(ConfigurationError, match="trace_retention"):
            _spec("smis", _ADVERSARY_SPECS["static"]).replace(trace_retention="everything")

    def test_trace_rejects_unknown_retention(self):
        with pytest.raises(ConfigurationError):
            ExecutionTrace(4, "alg", "adv", retention="bogus")

    def test_record_stats_requires_stats_mode(self):
        trace = ExecutionTrace(4, "alg", "adv")
        with pytest.raises(SimulationError):
            trace.record_stats(None, {}, None, frozenset())


class TestActivityLaziness:
    def test_kernel_activity_views_are_frozensets(self):
        spec = _spec("smis", _ADVERSARY_SPECS["markov-churn"], rounds=6)
        ctx = _build_context(spec, 3)
        sim = Simulator(
            n=ctx.n,
            algorithm=ctx.algorithm,
            adversary=ctx.adversary,
            seed=ctx.seed,
            delivery="kernel",
        )
        sim.run(ctx.rounds)
        activity = sim.last_round_activity
        assert activity.mode == "kernel"
        assert isinstance(activity.composed, frozenset)
        assert isinstance(activity.delivered, frozenset)
        assert isinstance(activity.changed_outputs, frozenset)
        assert activity.num_active == len(activity.delivered)
