"""The verification surface: ``repro verify`` and the retired switches.

Two layers under test:

* the leftover-variable guard — a ``REPRO_DELIVERY`` / ``REPRO_VERIFY*``
  variable left in the environment must fail loudly naming its
  replacement, never be ignored;
* the contract suite — a mutation rehearsal proving a deliberately broken
  contract makes ``repro verify`` exit 1 naming the offender (a gate that
  cannot fail is not a gate), and the ``delivery-equivalence`` contract
  passing on every committed scenario config.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.scenarios import executor
from repro.scenarios.cli import main
from repro.scenarios.registry import available
from repro.scenarios.spec import ScenarioSpec, component
from repro.verify.harness import run_verify
from test_incremental_delivery import _scenario_tree

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS_DIR = REPO_ROOT / "configs"

#: The retired switches, by the replacement their error must name.
RETIRED_ENVS = {
    "REPRO_DELIVERY": "'delivery' field",
    "REPRO_VERIFY": "repro verify --contracts delivery-equivalence",
    "REPRO_VERIFY_INCREMENTAL": "repro verify --contracts delivery-equivalence",
    "REPRO_VERIFY_KERNEL": "repro verify --contracts delivery-equivalence",
}


class TestRetiredSwitches:
    SPEC = ScenarioSpec(
        n=8, algorithm="scolor", adversary=component("flip-churn", flip_prob=0.1), rounds=2
    )

    @pytest.mark.parametrize("env", sorted(RETIRED_ENVS))
    def test_leftover_variable_raises_naming_its_replacement(self, monkeypatch, env):
        monkeypatch.setenv(env, "1")
        with pytest.raises(ConfigurationError) as raised:
            executor.run_scenario_seed(self.SPEC, 0)
        assert f"{env} is no longer supported" in str(raised.value)
        assert RETIRED_ENVS[env] in str(raised.value)

    @pytest.mark.parametrize("inert", ["", "0"])
    def test_values_that_never_switched_anything_on_stay_inert(self, monkeypatch, inert):
        for env in RETIRED_ENVS:
            monkeypatch.setenv(env, inert)
        row = executor.run_scenario_seed(self.SPEC, 0)
        monkeypatch.undo()
        assert row == executor.run_scenario_seed(self.SPEC, 0)

    def test_leftover_variable_fails_repro_run_cleanly(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_VERIFY", "incremental")
        config = CONFIGS_DIR / "scenarios" / "kernel-scolor.json"
        assert main(["run", str(config), "--no-store"]) == 1
        err = capsys.readouterr().err
        assert "REPRO_VERIFY is no longer supported" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# the contract suite: discovery, committed-tree pass, mutation rehearsal
# ---------------------------------------------------------------------------


class TestContractSuite:
    def test_contracts_join_the_discovery_surface(self):
        docs = available("contracts", docs=True)
        assert "delivery-equivalence" in docs
        assert "manipulation-exists" in docs
        # Surfacing contract docstrings is part of the API: every contract
        # must explain itself in one line.
        assert all(doc for doc in docs.values())

    def test_manipulation_exists_passes_on_committed_configs(self):
        verdicts = run_verify(
            suite="smoke", contracts=["manipulation-exists"], configs_dir=CONFIGS_DIR
        )
        assert verdicts and all(v.status == "pass" for v in verdicts)

    def test_relabel_isomorphism_passes(self):
        # Its replay of the relabeled graphs goes through the adversary
        # interface, which takes deltas only.
        verdicts = run_verify(suite="smoke", contracts=["relabel-isomorphism"])
        assert verdicts and all(v.status == "pass" for v in verdicts)

    def test_manipulation_exists_fails_on_an_unknown_parameter(self, tmp_path):
        adversary = {"name": "flip-churn", "params": {"flip_prb": 0.1}}
        spec = {"n": 8, "algorithm": "smis", "adversary": adversary}
        (tmp_path / "bad.json").write_text(json.dumps({"kind": "scenario", "spec": spec}))
        (verdict,) = run_verify(contracts=["manipulation-exists"], configs_dir=tmp_path)
        assert verdict.status == "fail"
        assert "spec.adversary.params.flip_prb" in verdict.detail
        assert "did you mean flip_prob" in verdict.detail

    def test_unknown_contract_fails_with_suggestion(self):
        with pytest.raises(Exception, match="did you mean"):
            run_verify(suite="smoke", contracts=["delivery-equivalance"])

    def test_unknown_suite_rejected(self):
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

    def test_delivery_equivalence_passes_on_committed_configs(self):
        verdicts = run_verify(contracts=["delivery-equivalence"], configs_dir=CONFIGS_DIR)
        status = {verdict.case: verdict.status for verdict in verdicts}
        for case in (
            "quiescence-smis:incremental",
            "quiescence-smis:kernel",
            "kernel-scolor:kernel",
        ):
            assert status[case] == "pass", case
        assert "fail" not in status.values()


class TestDeliveryEquivalenceConfigScan:
    """How the ``delivery-equivalence`` contract treats the configs it scans."""

    @staticmethod
    def _config_cases(verdicts, label):
        return {v.case: v for v in verdicts if v.case.startswith(f"{label}:")}

    def test_activity_probe_rows_compare_without_the_dirty_set_keys(self, tmp_path):
        spec = ScenarioSpec(
            n=16,
            algorithm="smis",
            adversary=component("flip-churn", flip_prob=0.1),
            rounds=8,
            seeds=(0,),
            probe=component("activity"),
            name="probed",
        )
        # The activity probe's dirty-set keys differ between paths by design
        # ...
        row_full, _ = executor._execute_seed(spec.replace(delivery="full"), 0)
        row_fast, _ = executor._execute_seed(spec.replace(delivery="incremental"), 0)
        differing = {k for k in row_full if row_full[k] != row_fast[k]}
        dirty_set_keys = {"mean_active", "max_active", "active_node_round_fraction"}
        assert differing and differing <= dirty_set_keys
        # ... while the traces and the rest of the row must not.
        verdicts = run_verify(
            contracts=["delivery-equivalence"], configs_dir=_scenario_tree(tmp_path, spec)
        )
        cases = self._config_cases(verdicts, "probed")
        assert {case: v.status for case, v in cases.items()} == {
            "probed:incremental": "pass",
            "probed:kernel": "pass",
        }

    def test_degraded_path_is_skipped_naming_the_fallback(self, tmp_path):
        # DynamicMIS declares no message stability, and with the revalidation
        # extension it has no kernel.
        spec = ScenarioSpec(
            n=12,
            algorithm=component("dynamic-mis", revalidate_dominated=True),
            adversary=component("flip-churn", flip_prob=0.05),
            rounds=4,
            seeds=(0,),
            name="unverifiable",
        )
        verdicts = run_verify(
            contracts=["delivery-equivalence"], configs_dir=_scenario_tree(tmp_path, spec)
        )
        cases = self._config_cases(verdicts, "unverifiable")
        assert set(cases) == {"unverifiable:incremental", "unverifiable:kernel"}
        for verdict in cases.values():
            assert verdict.status == "skip"
            assert "engine degraded to 'full'" in verdict.detail

    def test_unloadable_config_fails_naming_the_file(self, tmp_path):
        scenarios = tmp_path / "configs" / "scenarios"
        scenarios.mkdir(parents=True)
        broken = scenarios / "broken.json"
        broken.write_text('{"kind": "scenario", "spec": {"n": 8', encoding="utf-8")
        verdicts = run_verify(
            contracts=["delivery-equivalence"], configs_dir=tmp_path / "configs"
        )
        (verdict,) = [v for v in verdicts if v.case == str(broken)]
        assert verdict.status == "fail"
        assert "does not load" in verdict.detail

    def test_only_scenario_configs_are_run(self, tmp_path):
        configs = tmp_path / "configs"
        (configs / "sweeps").mkdir(parents=True)
        sweep = CONFIGS_DIR / "sweeps" / "churn-rate.json"
        (configs / "sweeps" / sweep.name).write_text(sweep.read_text(), encoding="utf-8")
        verdicts = run_verify(contracts=["delivery-equivalence"], configs_dir=configs)
        # Only the built-in matrix cases: the sweep contributes no case.
        assert {v.case for v in verdicts} == {
            f"{pair}:{path}"
            for pair in (
                "scolor/markov-churn",
                "smis/flip-churn",
                "dmis/markov-churn",
                "dmis/flip-churn",
                "dcolor/markov-churn",
                "dcolor/flip-churn",
                "smis-no-undecide/flip-churn",
                "scolor-no-uncolor/flip-churn",
                "basic-coloring/markov-churn+palette-shrink",
                "scolor/markov-churn+palette-shrink",
                "dcolor/markov-churn+palette-shrink",
                "dynamic-coloring/flip-churn",
                "dynamic-coloring/markov-churn",
                "dynamic-mis/flip-churn",
                "dynamic-mis/markov-churn",
            )
            for path in ("incremental", "kernel")
        }
        assert "fail" not in {v.status for v in verdicts}

    def test_missing_configs_dir_is_skipped_loudly(self, tmp_path):
        missing = tmp_path / "nowhere"
        verdicts = run_verify(contracts=["delivery-equivalence"], configs_dir=missing)
        (verdict,) = [v for v in verdicts if v.case == str(missing)]
        assert verdict.status == "skip"
        assert "does not exist" in verdict.detail


class TestMutationRehearsal:
    """A gate that cannot fail is not a gate: break a contract, watch it fire."""

    @pytest.fixture()
    def broken_smis_kernel(self, monkeypatch):
        """The SMis kernel flips node 0's output from its third round on."""
        from repro.kernel.mis import SMisKernel

        post_round = SMisKernel.post_round

        def flipping_post_round(self, ids):
            changed, values = post_round(self, ids)
            self.rehearsal_rounds = getattr(self, "rehearsal_rounds", 0) + 1
            if self.rehearsal_rounds < 3:
                return changed, values
            flipped = 0 if int(self._out_code[0]) == 1 else 1
            return np.append(changed, 0), [*values, flipped]

        monkeypatch.setattr(SMisKernel, "post_round", flipping_post_round)

    def test_broken_contract_fails_loudly(self, broken_smis_kernel, tmp_path, capsys):
        code = main(
            [
                "verify",
                "--contracts",
                "delivery-equivalence",
                "--configs",
                str(tmp_path),
                "--no-store",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL: contract 'delivery-equivalence' case 'smis/flip-churn:kernel'" in captured.err
        assert "kernel delivery diverges from the full path" in captured.err
        assert "round 3 differs in outputs" in captured.err

    def test_committed_tree_passes(self, capsys):
        code = main(
            [
                "verify",
                "--contracts",
                "delivery-equivalence",
                "--configs",
                str(CONFIGS_DIR),
                "--no-store",
            ]
        )
        assert code == 0
        assert "0 failed" in capsys.readouterr().out
