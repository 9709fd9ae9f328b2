"""CSR adjacency over a static edge universe for the array kernel.

:class:`EdgeUniverse` is the array engine's view of a *static* edge universe
(see :class:`repro.kernel.plan.KernelPlan`).  Both directions of every
universe edge are stored once, lexicographically sorted by ``(src, dst)``,
giving a CSR layout whose ``indptr`` never changes; the per-round "which
edges exist" information is a boolean mask indexed by universe-edge id.
Row gathers therefore never rebuild ``indices``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["EdgeUniverse"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)


class EdgeUniverse:
    """Doubled, lexsorted CSR layout over a static canonical edge list.

    ``edges`` must be canonical ``(u, v)`` tuples with ``u < v``, sorted
    lexicographically — the same order every kernel-capable churn process
    uses for its presence masks, so masks align index-for-index with
    :attr:`eu`/:attr:`ev`.
    """

    __slots__ = ("n", "m", "eu", "ev", "usrc", "udst", "uedge", "indptr")

    def __init__(self, n: int, edges: Tuple[Tuple[int, int], ...]) -> None:
        self.n = int(n)
        m = len(edges)
        self.m = m
        if m:
            arr = np.asarray(edges, dtype=np.int64)
            self.eu = np.ascontiguousarray(arr[:, 0])
            self.ev = np.ascontiguousarray(arr[:, 1])
        else:
            self.eu = _EMPTY_I8
            self.ev = _EMPTY_I8
        usrc = np.concatenate([self.eu, self.ev])
        udst = np.concatenate([self.ev, self.eu])
        uedge = np.concatenate([np.arange(m, dtype=np.int64)] * 2) if m else _EMPTY_I8
        order = np.lexsort((udst, usrc))
        self.usrc = usrc[order]
        self.udst = udst[order]
        self.uedge = uedge[order]
        counts = np.bincount(self.usrc, minlength=self.n) if m else np.zeros(self.n, dtype=np.int64)
        self.indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))

    def row_slots(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Universe slots of the CSR rows for ``ids``.

        Returns ``(slots, seg)``: ``slots[j]`` indexes :attr:`usrc`/
        :attr:`udst`/:attr:`uedge` and ``seg[j]`` is the position within
        ``ids`` whose row slot ``j`` belongs to.  Within each row, slots are
        in ascending-neighbor order (the lexsort guarantees it).
        """

        if ids.size == 0 or self.m == 0:
            return _EMPTY_I8, _EMPTY_I8
        starts = self.indptr[ids]
        counts = self.indptr[ids + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return _EMPTY_I8, _EMPTY_I8
        offsets = np.cumsum(counts) - counts
        slots = np.repeat(starts - offsets, counts) + np.arange(total, dtype=np.int64)
        seg = np.repeat(np.arange(ids.size, dtype=np.int64), counts)
        return slots, seg
