"""High-level one-call helpers for running framework algorithms.

These wrap the common pattern "build a Concat of the right SAlg/DAlg pair for
problem X, run it against adversary Y for R rounds, and hand back the trace
plus validity statistics" so examples and experiments stay short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.types import Assignment
from repro.dynamics.adversary import Adversary
from repro.problems.dynamic_problem import TDynamicSpec
from repro.problems.packing_covering import ProblemPair
from repro.runtime.simulator import run_simulation
from repro.runtime.trace import ExecutionTrace
from repro.core.concat import Concat
from repro.core.interfaces import DynamicAlgorithm, NetworkStaticAlgorithm
from repro.core.windows import default_window

__all__ = ["CombinedRunResult", "run_combined", "run_dynamic_problem"]


@dataclass(frozen=True)
class CombinedRunResult:
    """Trace plus T-dynamic validity summary of one combined-algorithm run."""

    trace: ExecutionTrace
    window: int
    pair: ProblemPair
    validity: Dict[str, float]

    @property
    def valid_fraction(self) -> float:
        """Fraction of rounds whose output was a valid T-dynamic solution."""
        return self.validity.get("valid_fraction", float("nan"))


def run_combined(
    *,
    n: int,
    static_factory: Callable[[], NetworkStaticAlgorithm],
    dynamic_factory: Callable[[], DynamicAlgorithm],
    adversary: Adversary,
    rounds: int,
    seed: int = 0,
    window: Optional[int] = None,
    input_assignment: Optional[Assignment] = None,
) -> CombinedRunResult:
    """Run ``Concat(SAlg, DAlg)`` against ``adversary`` and summarise validity."""
    T1 = window if window is not None else default_window(n)
    algorithm = Concat(static_factory, dynamic_factory, T1)
    trace = run_simulation(
        n=n,
        algorithm=algorithm,
        adversary=adversary,
        rounds=rounds,
        seed=seed,
        input_assignment=input_assignment,
    )
    pair = algorithm.problem_pair()
    spec = TDynamicSpec(pair, T1)
    return CombinedRunResult(
        trace=trace,
        window=T1,
        pair=pair,
        validity=spec.validity_summary(trace),
    )


def run_dynamic_problem(
    *,
    n: int,
    algorithm,
    pair: ProblemPair,
    adversary: Adversary,
    rounds: int,
    seed: int = 0,
    window: Optional[int] = None,
    input_assignment: Optional[Assignment] = None,
) -> CombinedRunResult:
    """Run any algorithm (combined, baseline or ablation) and summarise T-dynamic validity.

    Unlike :func:`run_combined` this does not construct the algorithm, so a
    baseline or ablation is judged by exactly the same checker as the
    framework algorithms.  Only the tests call it; the experiments (E9
    included) run scenario specs and read validity from the ``validity``
    metric.
    """
    T = window if window is not None else default_window(n)
    trace = run_simulation(
        n=n,
        algorithm=algorithm,
        adversary=adversary,
        rounds=rounds,
        seed=seed,
        input_assignment=input_assignment,
    )
    spec = TDynamicSpec(pair, T)
    return CombinedRunResult(
        trace=trace,
        window=T,
        pair=pair,
        validity=spec.validity_summary(trace),
    )
