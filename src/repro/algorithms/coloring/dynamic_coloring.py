"""The combined dynamic (degree+1)-colouring algorithm (Corollary 1.2).

``DynamicColoring = Concat(SColor, DColor, T1)``: SColor maintains a locally
stable partial colouring of the current graph; every round a fresh DColor
instance extends the SColor backbone into a complete colouring of the
window's intersection/union graphs; the output is always the oldest (fully
run) DColor instance.

Corollary 1.2 (restated for the implementation): with ``T1 = Θ(log n)`` the
output is a ``T1``-dynamic solution for (proper colouring, degree+1 range) in
every round w.h.p., and the output of a node whose 2-neighbourhood is static
during ``[r, r2]`` is unchanged during ``[r + 2·T1, r2]``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.concat import Concat
from repro.core.windows import default_window
from repro.algorithms.coloring.dcolor import DColor
from repro.algorithms.coloring.scolor import SColor

__all__ = ["DynamicColoring", "dynamic_coloring"]


class DynamicColoring(Concat):
    """``Concat(SColor, DColor)`` with a named identity for reports."""

    name = "dynamic-coloring"

    def __init__(self, T1: int) -> None:
        super().__init__(static_factory=SColor, dynamic_factory=DColor, T1=T1)

    def as_kernel(self):
        if type(self) is not DynamicColoring:
            return None
        from repro.kernel.coloring import DColorRows
        from repro.kernel.concat import ConcatRingKernel

        return lambda: ConcatRingKernel(self, DColorRows)


def dynamic_coloring(n: int, *, window: Optional[int] = None) -> DynamicColoring:
    """Build the combined colouring algorithm with the practical default window.

    Parameters
    ----------
    n:
        Number of nodes (used to size the window ``T1 = Θ(log n)``).
    window:
        Explicit window override.
    """
    T1 = window if window is not None else default_window(n)
    return DynamicColoring(T1)
