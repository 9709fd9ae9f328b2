"""Array kernel for the greedy (Δ+1)-ish coloring algorithms.

Covers :class:`BasicColoring` (``uncolor_enabled=False``) and
:class:`SColor` (the self-stabilising variant with the un-color rule).
State layout:

* ``color[v]`` — adopted color, ``-1`` while uncolored.
* ``pal[v] = (degree, excluded)`` — the palette recorded at the node's last
  delivery while uncolored, the only palette compose reads: the palette
  *set* is
  ``{1..degree+1} - set(excluded)`` with ``excluded`` a sorted tuple.
  Storing the complement keeps the common case (few fixed neighbors) tiny
  and makes the classic ``sorted(palette)[rng.integers(0, len)]`` draw
  reproducible via an order-statistic walk (:func:`palette_draw`, which
  the DColor ring of :mod:`repro.kernel.concat` shares).  ``finalize``
  writes back every node's palette as its last delivery left it,
  recomputed from the last round's neighbourhood and messages.
* message cache ``mtag``/``mval``: ``FIXED`` carries the color, ``TENT``
  carries the tentative choice (``-1`` encodes the classic ``None`` choice
  from an empty palette).

The compose step is a faithful python loop (it must consume
``rng(v).integers`` exactly like the classic code); deliver and the
fingerprint/output pass are vectorised.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .base import AlgorithmKernel, DeliverContext

__all__ = ["ColoringKernel", "palette_draw"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)

_T_FIXED = 1
_T_TENT = 2


def palette_draw(degree: int, excluded: Tuple[int, ...], integers_of, *key) -> int:
    """``sorted(palette)[rng.integers(0, len(palette))]``; ``-1`` for an empty palette.

    The palette is ``{1..degree+1} - set(excluded)`` with ``excluded`` sorted,
    so the draw walks the order statistic past the excluded colours.
    ``integers_of(*key)`` returns the node's bound ``Generator.integers`` and
    is called only for a non-empty palette.
    """
    size = degree + 1 - len(excluded)
    if size <= 0:
        return -1
    choice = int(integers_of(*key)(0, size)) + 1
    for e in excluded:
        if e <= choice:
            choice += 1
        else:
            break
    return choice


class ColoringKernel(AlgorithmKernel):
    def __init__(self, algorithm, *, uncolor_enabled: bool, track_uncolor_events: bool) -> None:
        super().__init__(algorithm)
        n = self.n
        self._color = np.full(n, -1, dtype=np.int64)
        self._mtag = np.zeros(n, dtype=np.int64)
        self._mval = np.zeros(n, dtype=np.int64)
        self._pal: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self._uncolor_enabled = bool(uncolor_enabled)
        self._track_uncolor_events = bool(track_uncolor_events)
        self._uncolored = 0
        self._uncolor_events = 0
        # palette exclusion keys are seg * stride + color with color <= n + 1
        self._stride = n + 2
        #: cached bound ``rng(v).integers`` per node (the compose hot loop)
        self._draw: List[Optional[object]] = [None] * n
        #: the last round's deliver context, for the palettes ``finalize`` writes
        self._last_ctx: Optional[DeliverContext] = None

    # -- round hooks ---------------------------------------------------------

    def wake(self, ids: np.ndarray) -> None:
        self.recompose_next[ids] = True
        fresh = ids[~self.woken[ids]]
        if fresh.size == 0:
            return
        self.woken[fresh] = True
        pal = self._pal
        for v in fresh.tolist():
            pal[v] = (0, ())  # classic on_wake palette is {1}
        self._uncolored += fresh.size

    def compose(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Colored nodes broadcast the deterministic ``(FIXED, c)`` — handled
        # vectorised (``frexp`` exponent == ``int.bit_length`` for ints, and
        # colors are far below 2**53 so the conversion is exact).  Only
        # uncolored nodes walk their palette and draw from their per-node
        # stream, in a python loop with the bound ``rng(v).integers``
        # cached; the draw order per node is untouched.
        c_all = self._color[ids]
        fixed_sel = c_all >= 0
        fixed_ids = ids[fixed_sel]
        chg_parts: List[np.ndarray] = []
        old_parts: List[np.ndarray] = []
        if fixed_ids.size:
            val = c_all[fixed_sel]
            unchanged = (
                self._has_msg[fixed_ids]
                & (self._mtag[fixed_ids] == _T_FIXED)
                & (self._mval[fixed_ids] == val)
            )
            chg = fixed_ids[~unchanged]
            if chg.size:
                vch = val[~unchanged]
                chg_parts.append(chg)
                old_parts.append(self.bits[chg])
                self._has_msg[chg] = True
                self._mtag[chg] = _T_FIXED
                self._mval[chg] = vch
                self.bits[chg] = 43 + np.frexp(vch.astype(np.float64))[1].astype(np.int64)

        unc_ids = ids[~fixed_sel]
        if unc_ids.size:
            integers = self._integers
            pal = self._pal
            id_list = unc_ids.tolist()
            has_rows = self._has_msg[unc_ids].tolist()
            tag_rows = self._mtag[unc_ids].tolist()
            mval_rows = self._mval[unc_ids].tolist()
            bits_rows = self.bits[unc_ids].tolist()
            changed: List[int] = []
            old_bits: List[int] = []
            new_val: List[int] = []
            new_bits: List[int] = []
            for i, v in enumerate(id_list):
                val_i = palette_draw(*pal[v], integers, v)
                b_i = 35 + max(val_i, 0).bit_length()
                if has_rows[i] and tag_rows[i] == _T_TENT and mval_rows[i] == val_i:
                    continue
                changed.append(v)
                old_bits.append(bits_rows[i])
                new_val.append(val_i)
                new_bits.append(b_i)
            if changed:
                chg = np.asarray(changed, dtype=np.int64)
                chg_parts.append(chg)
                old_parts.append(np.asarray(old_bits, dtype=np.int64))
                self._has_msg[chg] = True
                self._mtag[chg] = _T_TENT
                self._mval[chg] = new_val
                self.bits[chg] = new_bits

        if not chg_parts:
            return _EMPTY_I8, _EMPTY_I8
        if len(chg_parts) == 1:
            return chg_parts[0], old_parts[0]
        return np.concatenate(chg_parts), np.concatenate(old_parts)

    def _integers(self, v: int):
        """``rng(v).integers``, bound once per node."""
        draw = self._draw[v]
        if draw is None:
            draw = self._draw[v] = self._algorithm.rng(v).integers
        return draw

    def deliver(
        self,
        ids: np.ndarray,
        seg: np.ndarray,
        nbrs: np.ndarray,
        ctx: DeliverContext,
    ) -> None:
        self._last_ctx = ctx
        k = ids.size
        if k == 0:
            return
        ntag = self._mtag[nbrs]
        nval = self._mval[nbrs]
        deg = np.bincount(seg, minlength=k)
        deg_p1 = deg + 1
        own_color = self._color[ids]
        own_choice = self._mval[ids]  # tentative choice while uncolored
        uncolored = own_color < 0

        fixed_slots = ntag == _T_FIXED

        # "some neighbor picked my choice" is one scatter: every delivered
        # slot carries a composed message (``ntag != 0``: FIXED or TENT)
        conflict = np.zeros(k, dtype=bool)
        conflict[seg[nval == own_choice[seg]]] = True

        adopt = (
            uncolored
            & (own_choice >= 1)
            & (own_choice <= deg_p1)
            & ~conflict
        )
        if self._uncolor_enabled:
            hit_own = np.zeros(k, dtype=bool)
            hit_own[seg[fixed_slots & (nval == own_color[seg])]] = True
            # classic: color not in palette == color > degree+1 or color held
            # by a fixed neighbor (colors are always >= 1)
            uncolor = ~uncolored & ((own_color > deg_p1) | hit_own)
        else:
            uncolor = np.zeros(k, dtype=bool)

        adopt_ids = ids[adopt]
        if adopt_ids.size:
            self._color[adopt_ids] = own_choice[adopt]
            self._uncolored -= int(adopt_ids.size)
        uncolor_ids = ids[uncolor]
        if uncolor_ids.size:
            self._color[uncolor_ids] = -1
            self._uncolored += int(uncolor_ids.size)
            self._uncolor_events += int(uncolor_ids.size)

        # classic writes a palette for every delivered node; record it for
        # the nodes that are uncolored going into the next compose (the only
        # ones compose reads)
        record = (uncolored & ~adopt) | uncolor
        if record.any():
            idxs = np.flatnonzero(record)
            entries = self._palettes(idxs, seg, nval, fixed_slots, deg)
            self._pal.update(zip(ids[idxs].tolist(), entries))

    def _palettes(self, idxs, seg, nval, fixed_slots, deg) -> List[Tuple[int, Tuple[int, ...]]]:
        """``(degree, excluded)`` of rows ``idxs``: ``[deg + 1]`` minus fixed neighbour colours."""
        deg_p1 = deg + 1
        chosen = np.zeros(deg.size, dtype=bool)
        chosen[idxs] = True
        sub = np.flatnonzero(chosen[seg] & fixed_slots)
        seg_sub = seg[sub]
        nval_sub = nval[sub]
        keep_sub = nval_sub <= deg_p1[seg_sub]
        raw = seg_sub[keep_sub] * self._stride + nval_sub[keep_sub]
        raw.sort()
        if raw.size:
            keep = np.empty(raw.size, dtype=bool)
            keep[0] = True
            np.not_equal(raw[1:], raw[:-1], out=keep[1:])
            keys = raw[keep]
        else:
            keys = raw
        key_seg = keys // self._stride
        starts = np.searchsorted(key_seg, idxs, side="left").tolist()
        ends = np.searchsorted(key_seg, idxs, side="right").tolist()
        key_col = (keys % self._stride).tolist()
        return [
            (d, tuple(key_col[lo:hi])) for d, lo, hi in zip(deg[idxs].tolist(), starts, ends)
        ]

    def post_round(self, ids: np.ndarray) -> Tuple[np.ndarray, List[object]]:
        color_rows = self._color[ids]
        self._post_fingerprints(ids, color_rows < 0, color_rows)
        return self._post_outputs(ids, color_rows)

    def counters(self) -> Dict[str, float]:
        if self._track_uncolor_events:
            return {
                "uncolored": float(self._uncolored),
                "uncolor_events": float(self._uncolor_events),
            }
        return {"uncolored": float(self._uncolored)}

    def finalize(self) -> None:
        alg = self._algorithm
        woken_ids = np.flatnonzero(self.woken)
        woken = woken_ids.tolist()
        alg._awake = set(woken)
        color: Dict[int, Optional[int]] = {}
        tentative: Dict[int, Optional[int]] = {}
        palette: Dict[int, set] = {}
        for v, (degree, excluded) in zip(woken, self._last_palettes(woken_ids)):
            palette[v] = set(range(1, degree + 2)) - set(excluded)
        for v in woken:
            c = int(self._color[v])
            color[v] = c if c >= 0 else None
            if self._mtag[v] == _T_TENT:
                t = int(self._mval[v])
                tentative[v] = t if t >= 0 else None
            else:
                # classic keeps the stale pre-coloring tentative; nothing
                # reads it while the node is colored, so None is safe
                tentative[v] = None
        alg._color = color
        alg._tentative = tentative
        alg._palette = palette
        alg._uncolored_count = int(self._uncolored)
        if self._track_uncolor_events:
            alg._uncolor_events = int(self._uncolor_events)

    def _last_palettes(self, woken_ids: np.ndarray) -> List[Tuple[int, Tuple[int, ...]]]:
        """The palettes the last round's delivery left on ``woken_ids`` (all awake).

        A node the frontier skipped has the same inbox as at its last
        delivery, and the message cache holds every node's last broadcast.
        """
        if woken_ids.size == 0:
            return []
        ctx = self._last_ctx
        uni = ctx.universe
        slots = np.flatnonzero(ctx.eff_d)
        # ``woken_ids`` is every awake node, so every effective slot is in a row
        seg = np.searchsorted(woken_ids, uni.usrc[slots])
        nbrs = uni.udst[slots]
        deg = np.bincount(seg, minlength=woken_ids.size)
        idxs = np.arange(woken_ids.size)
        return self._palettes(idxs, seg, self._mval[nbrs], self._mtag[nbrs] == _T_FIXED, deg)
