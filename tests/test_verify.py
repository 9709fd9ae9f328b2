"""The verification surface: VerificationPolicy plumbing and ``repro verify``.

Three layers under test:

* the policy object itself — parsing, the ``"verification"`` config block,
  the ambient context manager, the ``REPRO_VERIFY`` environment variable
  (byte-equivalent to ``--verify``), and the retired per-path variables
  (which must fail loudly, never be ignored);
* the executor integration — the in-run gate fires on the verified path and
  degrades *loudly* when the requested path is unavailable;
* the contract suite — a mutation rehearsal proving a deliberately broken
  contract makes ``repro verify`` exit 1 naming the offender (a gate that
  cannot fail is not a gate).
"""

import json
import warnings
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import executor
from repro.scenarios.cli import main
from repro.scenarios.configs import load_config, validate_config
from repro.scenarios.registry import ADVERSARIES, available
from repro.scenarios.spec import ScenarioSpec, component
from repro.verify.policy import (
    VERIFY_ENV,
    VerificationPolicy,
    active_verification,
    current_verification,
    parse_verify_spec,
    use_verification,
    verification_from_mapping,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS_DIR = REPO_ROOT / "configs"

#: The per-path variables ``REPRO_VERIFY`` replaced.
RETIRED_ENVS = ("REPRO_VERIFY_INCREMENTAL", "REPRO_VERIFY_KERNEL")


@pytest.fixture(autouse=True)
def _clean_verification_env(monkeypatch):
    """Isolate every test from ambient policies and real environment flags."""
    for env in (VERIFY_ENV,) + RETIRED_ENVS:
        monkeypatch.delenv(env, raising=False)
    # The degradation warning deduplicates process-wide; reset per test.
    executor._DEGRADED_WARNED.clear()
    yield


# ---------------------------------------------------------------------------
# VerificationPolicy: parsing and the "verification" config block
# ---------------------------------------------------------------------------


class TestPolicyParsing:
    def test_spec_round_trip(self):
        assert parse_verify_spec("incremental").modes() == ("incremental",)
        assert parse_verify_spec("kernel,incremental").modes() == ("incremental", "kernel")
        assert parse_verify_spec("none") == VerificationPolicy()
        for spec in ("none", "incremental", "kernel", "incremental,kernel"):
            assert parse_verify_spec(spec).to_spec() == spec

    def test_unknown_mode_suggests_near_miss(self):
        with pytest.raises(ConfigurationError, match="did you mean.*kernel"):
            parse_verify_spec("kernal")

    def test_none_cannot_be_combined(self):
        with pytest.raises(ConfigurationError, match="'none' cannot be combined"):
            parse_verify_spec("none,kernel")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            parse_verify_spec(" , ")

    def test_mapping_accepts_booleans(self):
        policy = verification_from_mapping({"kernel": True})
        assert policy == VerificationPolicy(kernel=True)
        assert policy.wants("kernel") and not policy.wants("incremental")
        assert not policy.wants("full")

    def test_mapping_rejects_unknown_keys_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="did you mean.*kernel"):
            verification_from_mapping({"kernels": True})

    def test_mapping_rejects_non_boolean(self):
        with pytest.raises(ConfigurationError, match="must be a boolean"):
            verification_from_mapping({"kernel": 1})

    def test_policy_rejects_non_boolean_fields(self):
        with pytest.raises(ConfigurationError, match="must be a boolean"):
            VerificationPolicy(incremental="yes")


class TestVerificationConfigBlock:
    def _write_config(self, tmp_path, verification):
        payload = {
            "kind": "scenario",
            "spec": {
                "name": "verify-block-demo",
                "n": 12,
                "adversary": {"name": "flip-churn", "params": {"flip_prob": 0.05}},
                "algorithm": {"name": "scolor", "params": {}},
                "rounds": 4,
                "seeds": [0],
            },
            "verification": verification,
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_valid_block_loads_and_validates(self, tmp_path):
        config = load_config(self._write_config(tmp_path, {"kernel": True}))
        assert config.verification == {"kernel": True}
        assert validate_config(config) == []

    def test_unknown_key_is_a_validation_problem(self, tmp_path):
        config = load_config(self._write_config(tmp_path, {"kernle": True}))
        problems = validate_config(config)
        assert problems and any("did you mean" in problem for problem in problems)

    def test_non_object_block_rejected_at_load(self, tmp_path):
        with pytest.raises(ConfigurationError, match="verification"):
            load_config(self._write_config(tmp_path, "kernel"))


# ---------------------------------------------------------------------------
# ambient policy and the environment
# ---------------------------------------------------------------------------


class TestActiveVerification:
    def test_disabled_by_default(self):
        policy = active_verification()
        assert not policy.enabled and policy.modes() == ()

    def test_use_verification_wins_and_restores(self, monkeypatch):
        monkeypatch.setenv(VERIFY_ENV, "incremental")
        with use_verification(VerificationPolicy(kernel=True)) as installed:
            assert active_verification() is installed
            # The env transport carries the policy into spawned workers.
            import os

            assert os.environ[VERIFY_ENV] == "kernel"
        assert current_verification() is None
        assert active_verification() == VerificationPolicy(incremental=True)

    def test_canonical_env_parsed(self, monkeypatch):
        monkeypatch.setenv(VERIFY_ENV, "incremental,kernel")
        assert active_verification() == VerificationPolicy(incremental=True, kernel=True)

    def test_retired_alias_raises_naming_replacement(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_KERNEL", "1")
        with pytest.raises(ConfigurationError, match="REPRO_VERIFY=kernel"):
            active_verification()

    def test_retired_aliases_never_ignored(self, monkeypatch):
        # Neither the canonical variable nor an ambient policy may mask a
        # stale alias: ignoring it would silently switch the gate off.
        for env in RETIRED_ENVS:
            monkeypatch.setenv(env, "1")
        monkeypatch.setenv(VERIFY_ENV, "none")
        with pytest.raises(ConfigurationError, match="REPRO_VERIFY=incremental,kernel"):
            active_verification()
        with use_verification(VerificationPolicy()):
            with pytest.raises(ConfigurationError, match="REPRO_VERIFY_INCREMENTAL"):
                active_verification()

    def test_retired_alias_set_to_zero_is_inert(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_KERNEL", "0")
        assert not active_verification().enabled

    def test_env_byte_equivalent_to_policy(self, monkeypatch):
        """REPRO_VERIFY=kernel and --verify kernel run the identical gate."""
        spec = ScenarioSpec(
            n=16,
            algorithm="scolor",
            adversary=component("flip-churn", flip_prob=0.1),
            rounds=6,
            seeds=(0,),
        )
        monkeypatch.setenv(VERIFY_ENV, "kernel")
        via_env = executor.run_scenario_seed(spec, 0)
        monkeypatch.delenv(VERIFY_ENV)
        with use_verification(VerificationPolicy(kernel=True)):
            via_policy = executor.run_scenario_seed(spec, 0)
        assert via_env == via_policy


class TestLoudDegradation:
    def test_unverifiable_path_warns(self):
        # dynamic-coloring has no pure contract: it executes on the full
        # path, so a kernel gate cannot run — that must be loud.
        spec = ScenarioSpec(
            n=12,
            algorithm="dynamic-coloring",
            adversary=component("flip-churn", flip_prob=0.05),
            rounds=4,
            seeds=(0,),
        )
        with use_verification(VerificationPolicy(kernel=True)):
            with pytest.warns(UserWarning, match="requested gate did not run"):
                executor.run_scenario_seed(spec, 0)

    def test_verified_path_stays_silent(self):
        spec = ScenarioSpec(
            n=12,
            algorithm="scolor",
            adversary=component("flip-churn", flip_prob=0.05),
            rounds=4,
            seeds=(0,),
        )
        with use_verification(VerificationPolicy(incremental=True, kernel=True)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)
                executor.run_scenario_seed(spec, 0)


# ---------------------------------------------------------------------------
# the CLI flag
# ---------------------------------------------------------------------------


class TestVerifyFlag:
    def test_bad_mode_fails_with_suggestion(self, capsys):
        config = str(CONFIGS_DIR / "scenarios" / "quickstart-coloring.json")
        code = main(["run", config, "--no-store", "--verify", "kernal"])
        assert code == 1
        assert "did you mean" in capsys.readouterr().err

    def test_verify_none_runs_clean(self, capsys, tmp_path):
        payload = {
            "kind": "scenario",
            "spec": {
                "name": "tiny",
                "n": 8,
                "adversary": {"name": "static", "params": {}},
                "algorithm": {"name": "scolor", "params": {}},
                "rounds": 3,
                "seeds": [0],
            },
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["run", str(path), "--no-store", "--verify", "none"])
        assert code == 0


# ---------------------------------------------------------------------------
# the contract suite: discovery, committed-tree pass, mutation rehearsal
# ---------------------------------------------------------------------------


class TestContractSuite:
    def test_contracts_join_the_discovery_surface(self):
        docs = available("contracts", docs=True)
        assert "delta-vs-snapshot" in docs
        assert "manipulation-exists" in docs
        # Surfacing contract docstrings is part of the API: every contract
        # must explain itself in one line.
        assert all(doc for doc in docs.values())

    def test_manipulation_exists_passes_on_committed_configs(self):
        from repro.verify.harness import run_verify

        verdicts = run_verify(
            suite="smoke", contracts=["manipulation-exists"], configs_dir=CONFIGS_DIR
        )
        assert verdicts and all(v.status == "pass" for v in verdicts)

    def test_unknown_contract_fails_with_suggestion(self):
        from repro.verify.harness import run_verify

        with pytest.raises(Exception, match="did you mean"):
            run_verify(suite="smoke", contracts=["delta-vs-snapshots"])

    def test_unknown_suite_rejected(self):
        from repro.verify.harness import run_verify

        with pytest.raises(ConfigurationError, match="unknown verify suite"):
            run_verify(suite="smoky")

    def test_verify_store_target_is_stable(self):
        from repro.verify.harness import verify_store_target

        kind, label, key = verify_store_target("smoke")
        assert (kind, label) == ("verify", "verify-smoke")
        assert key["contracts"] is None
        assert verify_store_target("smoke", ["b", "a"])[2]["contracts"] == ["a", "b"]

    def test_cli_passes_and_stores_verdicts(self, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(
            [
                "verify",
                "--suite",
                "smoke",
                "--contracts",
                "time-scaling",
                "--configs",
                str(CONFIGS_DIR),
                "--store",
                str(store),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "time-scaling" in out and "0 failed" in out
        stored = list((store / "verify").glob("*.json"))
        assert len(stored) == 1


class TestMutationRehearsal:
    """A gate that cannot fail is not a gate: break a contract, watch it fire."""

    @pytest.fixture()
    def broken_delta_adversary(self):
        from repro.dynamics.adversary import (
            Adversary,
            FULLY_OBLIVIOUS,
            default_delta_emission,
        )
        from repro.dynamics.topology import Topology

        class _BrokenDeltaAdversary(Adversary):
            """Drops one edge from round 3 on — but only on the delta path."""

            obliviousness = FULLY_OBLIVIOUS

            def __init__(self, base):
                self._base = base
                self._delta_path = default_delta_emission()

            def step(self, view):
                if self._delta_path and view.round_index >= 3:
                    edges = sorted(self._base.edges)
                    return Topology(self._base.nodes, edges[:-1])
                return self._base

            def describe(self):
                return "BrokenDeltaAdversary"

        @ADVERSARIES.register("broken-delta")
        def _build(ctx):
            """Test double whose delta path diverges from its snapshot path."""
            return _BrokenDeltaAdversary(ctx.base)

        yield "broken-delta"
        ADVERSARIES.unregister("broken-delta")

    def test_broken_contract_fails_loudly(self, broken_delta_adversary, capsys):
        code = main(["verify", "--suite", "smoke", "--contracts", "delta-vs-snapshot", "--no-store"])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL: contract 'delta-vs-snapshot' case 'broken-delta'" in captured.err
        assert "diverges from snapshot path" in captured.err

    def test_committed_tree_passes(self, capsys):
        code = main(["verify", "--suite", "smoke", "--contracts", "delta-vs-snapshot", "--no-store"])
        assert code == 0
        assert "0 failed" in capsys.readouterr().out
