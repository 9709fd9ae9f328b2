"""Concrete adversaries.

Every adversary produces the per-round communication graph ``G_r``.  They
range from fully oblivious replay (:class:`ScriptedAdversary`) over stochastic
churn (:class:`ChurnAdversary`, :class:`MobilityAdversary`) to adaptive,
output-aware attackers (:class:`TargetedColoringAdversary`,
:class:`TargetedMisAdversary`) and structured scenarios used by specific
experiments (:class:`LocallyStaticAdversary`, :class:`FreezeAfterAdversary`).
"""

from repro.dynamics.adversaries.scripted import ScriptedAdversary, StaticAdversary
from repro.dynamics.adversaries.random_churn import ChurnAdversary, MobilityAdversary
from repro.dynamics.adversaries.locally_static import LocallyStaticAdversary
from repro.dynamics.adversaries.targeted_coloring import TargetedColoringAdversary
from repro.dynamics.adversaries.targeted_mis import TargetedMisAdversary
from repro.dynamics.adversaries.composite import FreezeAfterAdversary

__all__ = [
    "ScriptedAdversary",
    "StaticAdversary",
    "ChurnAdversary",
    "MobilityAdversary",
    "LocallyStaticAdversary",
    "TargetedColoringAdversary",
    "TargetedMisAdversary",
    "FreezeAfterAdversary",
]
