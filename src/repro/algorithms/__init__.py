"""Distributed algorithms: the paper's algorithms, their static ancestors, baselines and ablations.

* :mod:`repro.algorithms.coloring` — Section 4 ((degree+1)-colouring): the
  basic static randomized colouring (Algorithm 6), ``DColor`` (Algorithm 2),
  ``SColor`` (Algorithm 3), the combined ``DynamicColoring`` (Corollary 1.2),
  baselines and ablations.
* :mod:`repro.algorithms.mis` — Section 5 (MIS): a Ghaffari style static
  algorithm, ``DMis`` (Algorithm 4, pipelined Luby), ``SMis`` (Algorithm 5),
  the combined ``DynamicMIS`` (Corollary 1.3), a baseline and an ablation.
* :mod:`repro.algorithms.common` — shared helpers (the ⊥-backbone used by the
  Concat ablation).
"""

from repro.algorithms import coloring, mis
from repro.algorithms.common import NullBackbone

__all__ = ["coloring", "mis", "NullBackbone"]
