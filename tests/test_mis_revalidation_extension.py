"""Tests for the domination-hole re-validation extension (see README.md).

The paper-faithful combined MIS algorithm admits rare one-round "domination
holes" in its backbone under edge re-insertion churn; the
``revalidate_dominated`` extension lets every DMis instance re-check dominated
*input* values in its first round.  These tests pin down (a) that the
extension changes nothing on clean inputs, and (b) that it measurably improves
T-dynamic validity under churn compared to the faithful variant.
"""

from repro.dynamics import generators
from repro.dynamics.adversaries import ChurnAdversary, StaticAdversary
from repro.dynamics.churn import FlipChurn
from repro.problems import TDynamicSpec, mis_problem_pair
from repro.runtime.simulator import run_simulation
from repro.utils.rng import RngFactory
from repro.core import default_window
from repro.algorithms.mis import DMis, DynamicMIS, dynamic_mis
from helpers import array_violations_on, mis_vector


class TestRevalidateDominatedInputs:
    def test_clean_partial_input_is_preserved(self, medium_gnp):
        """With a valid partial solution as input the extension never fires."""
        n = medium_gnp.num_nodes
        seed_member = 0
        input_assignment = {seed_member: 1}
        for u in medium_gnp.neighbors(seed_member):
            input_assignment[u] = 0
        trace = run_simulation(
            n=n,
            algorithm=DMis(revalidate_dominated=True),
            adversary=StaticAdversary(medium_gnp),
            rounds=40,
            seed=1,
            input_assignment=input_assignment,
        )
        final = trace.outputs(trace.num_rounds)
        for v, value in input_assignment.items():
            assert final[v] == value
        members = {v for v, value in final.items() if value == 1}
        assert not array_violations_on(
            mis_problem_pair(), medium_gnp, mis_vector(medium_gnp, members)
        )

    def test_stale_dominated_input_is_dropped(self, path4):
        """A dominated input value without any dominator is re-validated away."""
        trace = run_simulation(
            n=4,
            algorithm=DMis(revalidate_dominated=True),
            adversary=StaticAdversary(path4),
            rounds=20,
            seed=2,
            input_assignment={0: 0},  # claims to be dominated but has no MIS neighbour
        )
        final = trace.outputs(trace.num_rounds)
        members = {v for v, value in final.items() if value == 1}
        assert not array_violations_on(mis_problem_pair(), path4, mis_vector(path4, members))

    def test_faithful_variant_keeps_stale_input(self, path4):
        """Contrast: without the extension the stale value survives (property A.1)."""
        trace = run_simulation(
            n=4,
            algorithm=DMis(),
            adversary=StaticAdversary(path4),
            rounds=20,
            seed=2,
            input_assignment={0: 0},
        )
        assert trace.outputs(trace.num_rounds)[0] == 0

    def test_extension_improves_validity_under_churn(self, medium_gnp):
        n = medium_gnp.num_nodes
        T1 = default_window(n)
        spec = TDynamicSpec(mis_problem_pair(), T1)

        def run(revalidate: bool) -> float:
            total = 0.0
            for seed in (0, 1, 2):
                base = generators.gnp(n, 0.12, RngFactory(seed).stream("base"))
                adversary = ChurnAdversary(n, FlipChurn(base, 0.05), RngFactory(seed).stream("adv"))
                algorithm = DynamicMIS(T1, revalidate_dominated=revalidate)
                trace = run_simulation(
                    n=n, algorithm=algorithm, adversary=adversary, rounds=3 * T1, seed=seed
                )
                total += spec.validity_summary(trace)["valid_fraction"]
            return total / 3

        faithful = run(False)
        extended = run(True)
        assert extended >= faithful
        assert extended >= 0.97

    def test_factory_flag(self):
        assert dynamic_mis(64, revalidate_dominated=True).revalidate_dominated
        assert not dynamic_mis(64).revalidate_dominated
