"""MIS algorithms (Section 5 of the paper)."""

from repro.algorithms.mis.dmis import DMis
from repro.algorithms.mis.smis import SMis
from repro.algorithms.mis.ghaffari import GhaffariMIS
from repro.algorithms.mis.dynamic_mis import DynamicMIS, dynamic_mis
from repro.algorithms.mis.greedy import greedy_mis
from repro.algorithms.mis.baselines import RestartMis
from repro.algorithms.mis.ablations import SMisNoUndecideAblation

__all__ = [
    "DMis",
    "SMis",
    "GhaffariMIS",
    "DynamicMIS",
    "dynamic_mis",
    "greedy_mis",
    "RestartMis",
    "SMisNoUndecideAblation",
]
