"""The paper's algorithmic framework (Section 3).

* :mod:`repro.core.interfaces` — the two abstract algorithm roles:
  :class:`DynamicAlgorithm` (``T``-dynamic, properties A.1/A.2) and
  :class:`NetworkStaticAlgorithm` (``(T, α)``-network-static, properties
  B.1/B.2).
* :mod:`repro.core.concat` — the ``Concat`` combiner (Algorithm 1 /
  Theorem 1.1) that turns one algorithm of each role into an algorithm that
  always outputs a ``T1``-dynamic solution and is locally stable wherever the
  graph is locally static.
* :mod:`repro.core.windows` — practical window-size defaults (``Θ(log n)``).
* :mod:`repro.core.properties` — trace-based verification of A.1/A.2/B.1/B.2,
  the T-dynamic guarantee and the locally-static guarantee.
"""

from repro.core.interfaces import DynamicAlgorithm, NetworkStaticAlgorithm
from repro.core.concat import Concat
from repro.core.windows import default_window, window_for
from repro.core.properties import (
    StaticIntervalReport,
    find_static_intervals,
    verify_extension,
    verify_locally_static,
    verify_never_retracts,
    verify_partial_solution_every_round,
    verify_t_dynamic,
)

__all__ = [
    "DynamicAlgorithm",
    "NetworkStaticAlgorithm",
    "Concat",
    "default_window",
    "window_for",
    "StaticIntervalReport",
    "find_static_intervals",
    "verify_extension",
    "verify_never_retracts",
    "verify_partial_solution_every_round",
    "verify_locally_static",
    "verify_t_dynamic",
]
