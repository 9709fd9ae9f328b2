"""Array kernels for the colouring algorithms.

:class:`ColoringKernel` covers :class:`BasicColoring`
(``uncolor_enabled=False``) and :class:`SColor` with its ablation
``scolor-no-uncolor`` (the self-stabilising variant with and without the
un-color rule).  State layout:

* ``color[v]`` — adopted color, ``-1`` while uncolored.
* ``pal[v] = (degree, excluded)`` — the palette recorded at the node's last
  delivery while uncolored, the only palette compose reads: the palette
  *set* is
  ``{1..degree+1} - set(excluded)`` with ``excluded`` a sorted tuple
  (:func:`palette_set`).
  Storing the complement keeps the common case (few fixed neighbors) tiny
  and makes the classic ``sorted(palette)[rng.integers(0, len)]`` draw
  reproducible via an order-statistic walk (:func:`palette_draw`).
  :func:`palette_complements` computes a batch of complements from
  (owner, neighbour colour) pairs.  ``finalize``
  writes back every node's palette as its last delivery left it,
  recomputed from the last round's neighbourhood and messages.
* message cache ``mtag``/``mval``: ``FIXED`` carries the color, ``TENT``
  carries the tentative choice (``-1`` encodes the classic ``None`` choice
  from an empty palette).

The compose step is a faithful python loop (it must consume
``rng(v).integers`` exactly like the classic code); deliver and the
fingerprint/output pass are vectorised.

DColor (Algorithm 2) has one array implementation, :class:`DColorRows`: the
state of ``k`` instances as ``(k, n)`` rows, with the palettes in the same
complement format.  The standalone ``dcolor`` kernel
(:class:`~repro.kernel.base.DynamicRowKernel`) drives one row, and
``DynamicColoring``'s ring (:class:`~repro.kernel.concat.ConcatRingKernel`)
drives ``T1 - 1``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.coloring.dcolor import DColor

from .base import AlgorithmKernel, DeliverContext, LiveSets, _value

__all__ = [
    "ColoringKernel",
    "DColorRows",
    "dcolor_message_bits",
    "palette_complements",
    "palette_draw",
    "palette_set",
]

_EMPTY_I8 = np.empty(0, dtype=np.int64)

_T_INIT = 0
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


def palette_complements(owner, colour, stride: int, wanted, degrees) -> List[Tuple[int, Tuple[int, ...]]]:
    """``(degree, excluded)`` of each ``wanted`` owner: its sorted distinct colours.

    ``owner`` and ``colour`` list the (owner, neighbour colour) pairs that
    exclude a colour, every colour in ``1 .. stride - 1``; ``degrees`` are the
    ``wanted`` owners' degrees.
    """
    keys = owner * stride + colour
    keys.sort()
    if keys.size:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    key_owner = keys // stride
    starts = np.searchsorted(key_owner, wanted, side="left").tolist()
    ends = np.searchsorted(key_owner, wanted, side="right").tolist()
    key_col = (keys % stride).tolist()
    return [(d, tuple(key_col[lo:hi])) for d, lo, hi in zip(degrees.tolist(), starts, ends)]


def palette_set(degree: int, excluded: Tuple[int, ...]) -> set:
    """The palette ``{1..degree+1} - set(excluded)`` of a complement."""
    return set(range(1, degree + 2)) - set(excluded)


def dcolor_message_bits(tag: np.ndarray, val: np.ndarray) -> np.ndarray:
    """``estimate_bits`` of ``(tag, val)`` DColor messages, ``val == -1`` for ``None``.

    ``("init" | "tent", x)`` costs ``2 + 32 + bits(x)`` and ``("fixed", c)``
    ``2 + 40 + bits(c)``, where an int costs its bit length plus one and
    ``None`` one bit.  ``frexp``'s exponent is ``int.bit_length`` for
    non-negative ints below ``2**53``.
    """
    length = np.frexp(np.maximum(val, 0).astype(np.float64))[1]
    return np.where(tag == _T_FIXED, 43, 35) + length


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
        chosen = np.zeros(deg.size, dtype=bool)
        chosen[idxs] = True
        sub = np.flatnonzero(chosen[seg] & fixed_slots)
        sub = sub[nval[sub] <= deg[seg[sub]] + 1]
        return palette_complements(seg[sub], nval[sub], self._stride, idxs, deg[idxs])

    def post_round(self, ids: np.ndarray) -> Tuple[np.ndarray, List[object]]:
        color_rows = self._color[ids]
        self._post_fingerprints(ids, color_rows < 0, color_rows)
        return self._post_outputs(ids, color_rows)

    def codes(self) -> np.ndarray:
        """Every node's current output as a code (``-1`` is ⊥)."""
        return self._color

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
        for v, entry in zip(woken, self._last_palettes(woken_ids)):
            palette[v] = palette_set(*entry)
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


class DColorRows:
    """The state of ``k`` DColor instances, one row each.

    Per row and node:

    * ``color`` (``-1`` = ⊥);
    * the broadcast of the current round as ``(tag, val)``: ``INIT`` carries
      the input colour, ``FIXED`` the colour, ``TENT`` the tentative choice
      (``-1`` encodes ``None``); a node broadcasts ``INIT`` until its first
      delivery in the instance (``live.started``);
    * ``fresh``: adopted last round, so broadcasting ``FIXED`` for the first
      time;
    * the palette complement ``(start degree, excluded)`` of every node that
      was uncoloured at its start round (a node coloured by its input keeps
      the empty palette), in :class:`ColoringKernel`'s format.

    A started node's live neighbours send only ``FIXED`` or ``TENT``, and a
    ``FIXED`` colour is never retracted, so a node adopts its choice iff no
    live neighbour's value equals it, and after the start round its palette
    loses only colours a live neighbour fixes for the first time.  The
    uncoloured node-instances draw from their instance's own per-node streams
    (``factory.node_stream("dcolor", v)``) in a python loop; they are few
    once the graph is mostly coloured.  The instances' intersection graphs
    are :attr:`live`.
    """

    #: the ``algorithm_counters`` key of the pending (uncoloured) nodes
    counter = "uncolored"

    def __init__(self, n: int, k: int) -> None:
        self._n = n
        self.live = LiveSets(n, k)
        self.color = np.full((k, n), -1, dtype=np.int64)
        self.tag = np.zeros((k, n), dtype=np.int64)
        self.val = np.full((k, n), -1, dtype=np.int64)
        self.fresh = np.zeros((k, n), dtype=bool)
        self._pal: List[Dict[int, Tuple[int, Tuple[int, ...]]]] = [{} for _ in range(k)]
        self._gens: List[Dict[int, np.random.Generator]] = [{} for _ in range(k)]
        self._factories: list = [None] * k

    #: ``estimate_bits`` of ``(tag, val)`` broadcasts
    message_bits = staticmethod(dcolor_message_bits)

    def start(self, row: int, codes: np.ndarray, factory) -> None:
        """Start an instance in ``row`` on the input colour ``codes`` with streams from ``factory``."""
        self.live.start(row)
        self.color[row] = codes
        self.fresh[row] = False
        self._pal[row] = {}
        self._gens[row] = {}
        self._factories[row] = factory

    def _integers(self, row: int, v: int):
        """The bound ``integers`` of ``v``'s DColor stream in ``row`` (cached per instance)."""
        gen = self._gens[row].get(v)
        if gen is None:
            gen = self._gens[row][v] = self._factories[row].node_stream(DColor.name, v)
        return gen.integers

    def compose(self, rows: int, woken: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rows ``0 .. rows-1`` broadcast: the uncoloured started nodes draw; ``(tag, val)``."""
        color = self.color[:rows]
        tag = np.where(self.live.started[:rows], np.where(color >= 0, _T_FIXED, _T_TENT), _T_INIT)
        val = color.copy()
        draw_rows, draw_nodes = np.nonzero(tag == _T_TENT)
        if draw_rows.size:
            pal = self._pal
            integers = self._integers
            val[draw_rows, draw_nodes] = [
                palette_draw(*pal[i][v], integers, i, v)
                for i, v in zip(draw_rows.tolist(), draw_nodes.tolist())
            ]
        self.tag[:rows] = tag
        self.val[:rows] = val
        return tag, val

    def deliver(self, rows: int, ids, seg, nbrs, ctx: DeliverContext, woken: np.ndarray) -> int:
        """Deliver to rows ``0 .. rows-1`` (``ids`` hold every pending node); the number coloured."""
        self.live.update(rows, ctx.eff_d, woken)
        n = self._n
        src = ids[seg]
        tag = self.tag[:rows]
        val = self.val[:rows]
        color = self.color[:rows]
        ntag = tag[:, nbrs]
        nval = val[:, nbrs]
        lv = self.live.mask[:rows][:, ctx.slots]

        # the start round: an uncoloured node's palette is [deg + 1] minus its
        # neighbours' INIT / FIXED colours
        starting = (tag == _T_INIT) & woken
        fresh_start = starting & (color < 0)
        if fresh_start.any():
            deg = np.bincount(src, minlength=n)
            hit = fresh_start[:, src] & (ntag != _T_TENT) & (nval >= 1) & (nval <= deg[src] + 1)
            hit_rows, hit_slots = np.nonzero(hit)
            start_rows, start_nodes = np.nonzero(fresh_start)
            entries = palette_complements(
                hit_rows * n + src[hit_slots],
                nval[hit_rows, hit_slots],
                n + 2,  # colours are at most deg + 1 <= n
                start_rows * n + start_nodes,
                deg[start_nodes],
            )
            pal = self._pal
            for i, v, entry in zip(start_rows.tolist(), start_nodes.tolist(), entries):
                pal[i][v] = entry

        # a choice sticks unless a live neighbour sends the same value
        tent = tag == _T_TENT
        if tent.any():
            clash = tent[:, src] & lv & (nval == val[:, src])
            blocked = np.zeros((rows, n), dtype=bool)
            clash_rows, clash_slots = np.nonzero(clash)
            blocked[clash_rows, src[clash_slots]] = True
            adopt = tent & (val >= 1) & ~blocked
            color[adopt] = val[adopt]
        else:
            adopt = np.zeros((rows, n), dtype=bool)

        # palettes only shrink, by the colours live neighbours fix
        fresh = self.fresh[:rows]
        if fresh.any():
            hit = fresh[:, nbrs] & lv & ~starting[:, src]
            hit_rows, hit_slots = np.nonzero(hit)
            pal = self._pal
            for i, v, c in zip(
                hit_rows.tolist(), src[hit_slots].tolist(), nval[hit_rows, hit_slots].tolist()
            ):
                entry = pal[i].get(v)
                if entry is not None and c <= entry[0] + 1 and c not in entry[1]:
                    pal[i][v] = (entry[0], tuple(sorted((*entry[1], c))))
        fresh[:] = adopt
        return int(np.count_nonzero(adopt))

    def output_codes(self, row: int, ids: np.ndarray) -> np.ndarray:
        """``row``'s colours for ``ids`` (``-1`` is ⊥)."""
        return self.color[row, ids]

    def fill(self, instance, row: int, woken: List[int]) -> None:
        """Write ``row``'s per-node state into the DColor ``instance``."""
        color = self.color[row]
        started = self.live.started[row]
        val = self.val[row]
        pal = self._pal[row]
        instance._awake = set(woken)
        instance._live = self.live.sets(row, woken)
        instance._color = {v: _value(color[v]) for v in woken}
        instance._started = {v: bool(started[v]) for v in woken}
        instance._palette = {}
        instance._tentative = {}
        for v in woken:
            entry = pal.get(v)
            if entry is None:
                instance._palette[v] = set()
                instance._tentative[v] = None
            else:
                instance._palette[v] = palette_set(*entry)
                instance._tentative[v] = _value(val[v])
        instance._uncolored_count = sum(1 for v in woken if color[v] < 0)
        instance._node_rngs = dict(self._gens[row])
