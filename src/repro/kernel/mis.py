"""Array kernels for the MIS algorithms (SMis and DMis).

State codes: ``0`` undecided, ``1`` MIS, ``2`` dominated — chosen so the
code doubles as the fingerprint token (MIS ``(MARK,)`` vs dominated
``None`` vs VOLATILE undecided) and maps to the paper's output encoding
via ``[-1, 1, 0]``.

SMis accumulates neighbor desire levels in *ascending neighbor id* order
(``np.bincount`` is a sequential pass over slots, which the universe
lexsort orders by neighbor) — the classic ``deliver`` iterates its inbox
in sorted key order for exactly this reason.

DMis keeps the per-instance intersection graph ("live" sets) as a boolean
mask over doubled universe slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.types import MisState

from .base import AlgorithmKernel, DeliverContext
from .nodestreams import NodeStreamPool

__all__ = ["SMisKernel", "DMisKernel"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)

_S_UND = 0
_S_MIS = 1
_S_DOM = 2
_STATE_ENUMS = (MisState.UNDECIDED, MisState.MIS, MisState.DOMINATED)
_OUT_LOOKUP = np.array([-1, 1, 0], dtype=np.int64)

_T_NONE = 0
_T_MARK = 1
_T_UND = 2  # SMis ``(UNDECIDED_MSG, p, candidate)``
_T_RAND = 2  # DMis ``(RAND, value)``


class SMisKernel(AlgorithmKernel):
    def __init__(self, algorithm, *, undecide_enabled: bool) -> None:
        super().__init__(algorithm)
        n = self.n
        self._undecide_enabled = bool(undecide_enabled)
        self._state = np.zeros(n, dtype=np.int64)
        self._desire = np.zeros(n, dtype=np.float64)
        self._cand = np.zeros(n, dtype=bool)
        self._mtag = np.zeros(n, dtype=np.int64)
        self._mp = np.zeros(n, dtype=np.float64)
        self._mcand = np.zeros(n, dtype=bool)
        self._floor = 1.0 / (5.0 * n)
        self._undecided = 0
        self._undecide_events = 0
        #: vectorised per-node streams, byte-identical to ``alg.rng(v)``
        self._pool = NodeStreamPool(n, algorithm.config.rng_factory.seed, algorithm.name)

    def wake(self, ids: np.ndarray) -> None:
        self.recompose_next[ids] = True
        fresh = ids[~self.woken[ids]]
        if fresh.size == 0:
            return
        self.woken[fresh] = True
        self._state[fresh] = _S_UND
        self._desire[fresh] = 0.5
        self._cand[fresh] = False
        self._undecided += int(fresh.size)

    def compose(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Decided nodes carry a deterministic message — handled vectorised.
        # Only undecided nodes draw, one batched pull from the stream pool
        # (streams are per-node independent, so batching never reorders a
        # node's own draw sequence).
        state_rows = self._state[ids]
        und_sel = state_rows == _S_UND
        rest_ids = ids[~und_sel]
        chg_parts: List[np.ndarray] = []
        old_parts: List[np.ndarray] = []
        if rest_ids.size:
            mis_rows = state_rows[~und_sel] == _S_MIS
            tag = np.where(mis_rows, _T_MARK, _T_NONE)
            b = np.where(mis_rows, 34, 1)
            unchanged = (
                self._has_msg[rest_ids]
                & (self._mtag[rest_ids] == tag)
                & (self._mp[rest_ids] == 0.0)
                & ~self._mcand[rest_ids]
            )
            chg = rest_ids[~unchanged]
            if chg.size:
                chg_parts.append(chg)
                old_parts.append(self.bits[chg])
                self._has_msg[chg] = True
                self._mtag[chg] = tag[~unchanged]
                self._mp[chg] = 0.0
                self._mcand[chg] = False
                self.bits[chg] = b[~unchanged]

        und_ids_arr = ids[und_sel]
        if und_ids_arr.size:
            p = self._desire[und_ids_arr]
            cnd = self._pool.random(und_ids_arr) < p
            self._cand[und_ids_arr] = cnd
            keep = ~(
                self._has_msg[und_ids_arr]
                & (self._mtag[und_ids_arr] == _T_UND)
                & (self._mp[und_ids_arr] == p)
                & (self._mcand[und_ids_arr] == cnd)
            )
            chg = und_ids_arr[keep]
            if chg.size:
                chg_parts.append(chg)
                old_parts.append(self.bits[chg])
                self._has_msg[chg] = True
                self._mtag[chg] = _T_UND
                self._mp[chg] = p[keep]
                self._mcand[chg] = cnd[keep]
                self.bits[chg] = 91

        if not chg_parts:
            return _EMPTY_I8, _EMPTY_I8
        if len(chg_parts) == 1:
            return chg_parts[0], old_parts[0]
        return np.concatenate(chg_parts), np.concatenate(old_parts)

    def deliver(
        self,
        ids: np.ndarray,
        seg: np.ndarray,
        nbrs: np.ndarray,
        ctx: DeliverContext,
    ) -> None:
        k = ids.size
        if k == 0:
            return
        ntag = self._mtag[nbrs]
        mark = np.zeros(k, dtype=bool)
        mark[seg[ntag == _T_MARK]] = True
        und_slots = ntag == _T_UND
        if und_slots.any():
            eff_deg = np.bincount(
                seg[und_slots], weights=self._mp[nbrs[und_slots]], minlength=k
            )
            note = np.zeros(k, dtype=bool)
            note[seg[und_slots & self._mcand[nbrs]]] = True
        else:
            eff_deg = np.zeros(k, dtype=np.float64)
            note = np.zeros(k, dtype=bool)

        s = self._state[ids]
        undm = s == _S_UND
        if undm.any():
            uids = ids[undm]
            d = self._desire[uids]
            self._desire[uids] = np.where(
                eff_deg[undm] >= 2.0,
                np.maximum(d / 2.0, self._floor),
                np.minimum(2.0 * d, 0.5),
            )

        to_dom = undm & mark
        to_mis = undm & ~mark & self._cand[ids] & ~note
        if self._undecide_enabled:
            to_und = ((s == _S_MIS) & mark) | ((s == _S_DOM) & ~mark)
        else:
            to_und = np.zeros(k, dtype=bool)

        state = self._state
        dom_ids = ids[to_dom]
        mis_ids = ids[to_mis]
        und_ids = ids[to_und]
        state[dom_ids] = _S_DOM
        state[mis_ids] = _S_MIS
        state[und_ids] = _S_UND
        self._undecided += int(und_ids.size) - int(dom_ids.size) - int(mis_ids.size)
        self._undecide_events += int(und_ids.size)

    def post_round(self, ids: np.ndarray) -> Tuple[np.ndarray, List[object]]:
        s = self._state[ids]
        self._post_fingerprints(ids, s == _S_UND, s)
        return self._post_outputs(ids, _OUT_LOOKUP[s])

    def counters(self) -> Dict[str, float]:
        return {
            "undecided": float(self._undecided),
            "undecide_events": float(self._undecide_events),
        }

    def finalize(self) -> None:
        alg = self._algorithm
        woken = np.flatnonzero(self.woken).tolist()
        alg._awake = set(woken)
        alg._state = {v: _STATE_ENUMS[int(self._state[v])] for v in woken}
        alg._desire = {v: float(self._desire[v]) for v in woken}
        alg._candidate = {v: bool(self._cand[v]) for v in woken}
        alg._undecided_n = int(self._undecided)
        alg._undecide_events = int(self._undecide_events)
        alg._node_rng_skips = self._pool.draw_skips()


class DMisKernel(AlgorithmKernel):
    def __init__(self, algorithm) -> None:
        super().__init__(algorithm)
        n = self.n
        self._state = np.zeros(n, dtype=np.int64)
        self._drawn = np.zeros(n, dtype=np.float64)
        self._mtag = np.zeros(n, dtype=np.int64)
        self._mp = np.zeros(n, dtype=np.float64)
        self._undecided = 0
        #: vectorised per-node streams, byte-identical to ``alg.rng(v)``
        self._pool = NodeStreamPool(n, algorithm.config.rng_factory.seed, algorithm.name)
        #: live-set storage: a doubled-universe slot mask, sized by ``set_array_mode``
        self._live_dir = np.zeros(0, dtype=bool)
        self._live_init = np.zeros(n, dtype=bool)

    def set_array_mode(self, universe) -> None:
        """Size the live-set bookkeeping to the engine's edge universe."""

        self._universe = universe
        self._live_dir = np.zeros(universe.usrc.size, dtype=bool)

    def wake(self, ids: np.ndarray) -> None:
        self.recompose_next[ids] = True
        fresh = ids[~self.woken[ids]]
        if fresh.size == 0:
            return
        self.woken[fresh] = True
        self._state[fresh] = _S_UND
        self._drawn[fresh] = np.inf
        self._live_init[fresh] = False
        self._undecided += int(fresh.size)

    def compose(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # Same split as SMisKernel.compose: decided rows vectorised,
        # undecided rows pull one batched draw from the stream pool.
        state_rows = self._state[ids]
        und_sel = state_rows == _S_UND
        rest_ids = ids[~und_sel]
        chg_parts: List[np.ndarray] = []
        old_parts: List[np.ndarray] = []
        if rest_ids.size:
            mis_rows = state_rows[~und_sel] == _S_MIS
            tag = np.where(mis_rows, _T_MARK, _T_NONE)
            b = np.where(mis_rows, 34, 1)
            unchanged = (
                self._has_msg[rest_ids]
                & (self._mtag[rest_ids] == tag)
                & (self._mp[rest_ids] == 0.0)
            )
            chg = rest_ids[~unchanged]
            if chg.size:
                chg_parts.append(chg)
                old_parts.append(self.bits[chg])
                self._has_msg[chg] = True
                self._mtag[chg] = tag[~unchanged]
                self._mp[chg] = 0.0
                self.bits[chg] = b[~unchanged]

        und_ids_arr = ids[und_sel]
        if und_ids_arr.size:
            val = self._pool.random(und_ids_arr)
            self._drawn[und_ids_arr] = val
            keep = ~(
                self._has_msg[und_ids_arr]
                & (self._mtag[und_ids_arr] == _T_RAND)
                & (self._mp[und_ids_arr] == val)
            )
            chg = und_ids_arr[keep]
            if chg.size:
                chg_parts.append(chg)
                old_parts.append(self.bits[chg])
                self._has_msg[chg] = True
                self._mtag[chg] = _T_RAND
                self._mp[chg] = val[keep]
                self.bits[chg] = 98

        if not chg_parts:
            return _EMPTY_I8, _EMPTY_I8
        if len(chg_parts) == 1:
            return chg_parts[0], old_parts[0]
        return np.concatenate(chg_parts), np.concatenate(old_parts)

    def deliver(
        self,
        ids: np.ndarray,
        seg: np.ndarray,
        nbrs: np.ndarray,
        ctx: DeliverContext,
    ) -> None:
        k = ids.size
        if k == 0:
            return
        live = self._live_dir
        eff_d = ctx.eff_d
        # Global restrict: a no-op for untouched rows (their effective slots
        # did not change this round), exact for delivered rows.
        np.logical_and(live, eff_d, out=live)
        uninit = ids[~self._live_init[ids]]
        if uninit.size:
            slots, _ = ctx.universe.row_slots(uninit)
            live[slots] = eff_d[slots]
            self._live_init[uninit] = True

        s = self._state[ids]
        undm = s == _S_UND
        if not undm.any():
            return
        lv = live[ctx.slots]
        ntag = self._mtag[nbrs]
        mark = np.zeros(k, dtype=bool)
        mark[seg[lv & (ntag == _T_MARK)]] = True
        rsel = lv & (ntag == _T_RAND)
        minr = np.full(k, np.inf)
        np.minimum.at(minr, seg[rsel], self._mp[nbrs[rsel]])

        to_dom = undm & mark
        to_mis = undm & ~mark & (self._drawn[ids] < minr)
        self._apply_transitions(ids[to_dom], ids[to_mis])

    def _apply_transitions(self, dom_ids: np.ndarray, mis_ids: np.ndarray) -> None:
        self._state[dom_ids] = _S_DOM
        self._state[mis_ids] = _S_MIS
        self._undecided -= int(dom_ids.size) + int(mis_ids.size)

    def post_round(self, ids: np.ndarray) -> Tuple[np.ndarray, List[object]]:
        s = self._state[ids]
        self._post_fingerprints(ids, s == _S_UND, s)
        return self._post_outputs(ids, _OUT_LOOKUP[s])

    def counters(self) -> Dict[str, float]:
        return {"undecided": float(self._undecided)}

    def finalize(self) -> None:
        alg = self._algorithm
        woken = np.flatnonzero(self.woken).tolist()
        alg._awake = set(woken)
        alg._state = {v: _STATE_ENUMS[int(self._state[v])] for v in woken}
        alg._drawn = {v: float(self._drawn[v]) for v in woken}
        live: Dict[int, Optional[frozenset]] = {v: None for v in woken}
        init_ids = np.asarray([v for v in woken if self._live_init[v]], dtype=np.int64)
        if init_ids.size:
            uni = self._universe
            slots, seg = uni.row_slots(init_ids)
            kept = self._live_dir[slots]
            kept_seg = seg[kept]
            kept_dst = uni.udst[slots[kept]]
            bounds = np.searchsorted(kept_seg, np.arange(init_ids.size + 1))
            for i, v in enumerate(init_ids.tolist()):
                live[v] = frozenset(kept_dst[bounds[i] : bounds[i + 1]].tolist())
        alg._live = live
        alg._undecided_n = int(self._undecided)
        alg._node_rng_skips = self._pool.draw_skips()
