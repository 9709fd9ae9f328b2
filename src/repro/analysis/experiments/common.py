"""Shared constants and helpers for the experiment suite.

Every experiment builds its workloads as :class:`~repro.scenarios.ScenarioSpec`
values; the registries of :mod:`repro.scenarios.components` construct the
topology, adversary and algorithm from named
:class:`~repro.utils.rng.RngFactory` streams, so rows are reproducible and the
three kinds of randomness never alias.
"""

from __future__ import annotations

import math

__all__ = ["log2", "DEFAULT_FAMILY"]

#: Topology family used by default throughout the experiments: a sparse
#: Erdős–Rényi graph with expected average degree 8, the regime the paper's
#: wireless / overlay motivation cares about.
DEFAULT_FAMILY = "gnp_sparse"


def log2(n: int) -> float:
    """``log₂ n`` (the yardstick every O(log n) claim is measured against)."""
    return math.log2(max(n, 2))
