"""The combined dynamic MIS algorithm (Corollary 1.3).

``DynamicMIS = Concat(SMis, DMis, T1)``: SMis maintains a locally stable
partial (independent set, dominating set) backbone of the current graph; every
round a fresh DMis instance extends the backbone into a complete solution of
the window graphs; the output is the oldest fully-run DMis instance.

Corollary 1.3 (restated for the implementation): with ``T1 = Θ(log n)`` the
output is a ``T1``-dynamic MIS every round w.h.p., and the output of a node
whose 2-neighbourhood is static during ``[r, r2]`` is unchanged during
``[r + 2·T1, r2]``.

The combiner runs on the array kernel
(:class:`~repro.kernel.concat.ConcatRingKernel`: the ``T1 - 1`` live DMis
instances as :class:`~repro.kernel.mis.DMisRows` rows over the SMis kernel).  With
``revalidate_dominated=True`` it has no kernel and stays on the ``full``
path: the revalidation's first-round special case is not vectorised.
"""

from __future__ import annotations

from typing import Optional

from repro.core.concat import Concat
from repro.core.windows import default_window
from repro.algorithms.mis.dmis import DMis
from repro.algorithms.mis.smis import SMis

__all__ = ["DynamicMIS", "dynamic_mis"]


class DynamicMIS(Concat):
    """``Concat(SMis, DMis)`` with a named identity for reports.

    Parameters
    ----------
    T1:
        The dynamic window size.
    revalidate_dominated:
        Forwarded to every :class:`~repro.algorithms.mis.dmis.DMis` instance.
        Off by default (paper-faithful); switching it on removes the transient
        domination holes documented in README.md at the cost of weakening
        the literal input-extension property A.1 for stale input values.
    """

    name = "dynamic-mis"

    def __init__(self, T1: int, *, revalidate_dominated: bool = False) -> None:
        super().__init__(
            static_factory=SMis,
            dynamic_factory=lambda: DMis(revalidate_dominated=revalidate_dominated),
            T1=T1,
        )
        self.revalidate_dominated = revalidate_dominated

    def as_kernel(self):
        # the revalidation extension's first-round special case is not
        # vectorised: such a combiner stays on the full path
        if type(self) is not DynamicMIS or self.revalidate_dominated:
            return None
        from repro.kernel.concat import ConcatRingKernel
        from repro.kernel.mis import DMisRows

        return lambda: ConcatRingKernel(self, DMisRows)


def dynamic_mis(
    n: int, *, window: Optional[int] = None, revalidate_dominated: bool = False
) -> DynamicMIS:
    """Build the combined MIS algorithm with the practical default window."""
    T1 = window if window is not None else default_window(n)
    return DynamicMIS(T1, revalidate_dominated=revalidate_dominated)
