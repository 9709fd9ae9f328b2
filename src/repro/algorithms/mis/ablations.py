"""Ablated MIS variant (experiment E13).

* :class:`SMisNoUndecideAblation` — SMis without the un-decide rules.  A new
  edge between two MIS nodes, or the loss of a dominator, is never repaired,
  so the per-round output stops being a partial solution for the current graph
  (property B.1 fails).  E13b measures the fraction of rounds that violate it.
"""

from __future__ import annotations

from repro.algorithms.mis.smis import SMis

__all__ = ["SMisNoUndecideAblation"]


class SMisNoUndecideAblation(SMis):
    """SMis without the un-decide rules."""

    name = "smis-no-undecide"

    def __init__(self) -> None:
        super().__init__(undecide_enabled=False)
