"""Array kernels for the MIS algorithms (SMis and DMis).

State codes: ``0`` undecided, ``1`` MIS, ``2`` dominated — chosen so the
code doubles as the fingerprint token (MIS ``(MARK,)`` vs dominated
``None`` vs VOLATILE undecided) and maps to the paper's output encoding
via ``[-1, 1, 0]``.

SMis accumulates neighbor desire levels in *ascending neighbor id* order
(``np.bincount`` is a sequential pass over slots, which the universe
lexsort orders by neighbor) — the classic ``deliver`` iterates its inbox
in sorted key order for exactly this reason.

DMis (Algorithm 4) has one array implementation, :class:`DMisRows`: the
state of ``k`` instances as ``(k, n)`` rows.  The standalone ``dmis``
kernel (:class:`~repro.kernel.base.DynamicRowKernel`) drives one row, and
``DynamicMIS``'s ring (:class:`~repro.kernel.concat.ConcatRingKernel`)
drives ``T1 - 1``; the instances' intersection graphs ("live" sets) are a
:class:`~repro.kernel.base.LiveSets`.

:class:`SMisKernel` also runs the ablation ``smis-no-undecide``
(``undecide_enabled=False``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.algorithms.mis.dmis import DMis
from repro.types import MisState

from .base import AlgorithmKernel, DeliverContext, LiveSets
from .nodestreams import NodeStreamPool

__all__ = ["SMisKernel", "DMisRows", "dmis_message_bits"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)

_S_UND = 0
_S_MIS = 1
_S_DOM = 2
_STATE_ENUMS = (MisState.UNDECIDED, MisState.MIS, MisState.DOMINATED)
_OUT_LOOKUP = np.array([-1, 1, 0], dtype=np.int64)
#: the state of an output code ``c`` is ``_CODE_STATE[c + 1]``
_CODE_STATE = np.array([_S_UND, _S_DOM, _S_MIS], dtype=np.int64)

_T_NONE = 0
_T_MARK = 1
_T_UND = 2  # SMis ``(UNDECIDED_MSG, p, candidate)``

#: ``estimate_bits`` of a DMis message by state: ``("rand", x)``, ``("mark",)``, ``None``
_DMIS_BITS = np.array([98, 34, 1], dtype=np.int64)


def dmis_message_bits(state: np.ndarray) -> np.ndarray:
    """``estimate_bits`` of the DMis messages that nodes in ``state`` broadcast.

    An undecided node sends ``("rand", float)`` (``2 + 32 + 64``), a MIS node
    ``("mark",)`` (``2 + 32``) and a dominated node ``None`` (1).
    """
    return _DMIS_BITS[state]


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

    def codes(self) -> np.ndarray:
        """Every node's current output as a code (``-1`` is ⊥)."""
        return _OUT_LOOKUP[self._state]

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


class DMisRows:
    """The state of ``k`` DMis instances, one row each.

    Per row and node: the state (the codes above) and the value drawn in the
    node's last undecided round.  The broadcast is ``(state, draw)``: the
    state at compose time is the message tag (``MARK``, ``RAND``, silent), and
    :meth:`deliver` evaluates both rules before it moves any state.  All
    undecided node-instances draw in one batch from a
    :class:`~repro.kernel.nodestreams.NodeStreamPool` with one row per
    instance, lane ``row * n + v``, seeded with the instance's master seed.
    Both rules — a live ``MARK`` makes an undecided node dominated; a draw
    strictly below every live undecided neighbour's makes it MIS — are one
    pass over the live slots of the undecided node-instances.  The
    instances' intersection graphs are :attr:`live`.
    """

    #: the ``algorithm_counters`` key of the pending (undecided) nodes
    counter = "undecided"

    def __init__(self, n: int, k: int) -> None:
        self._n = n
        self.live = LiveSets(n, k)
        self.state = np.zeros((k, n), dtype=np.int64)
        self.drawn = np.full((k, n), np.inf)
        #: one row of node streams per instance, re-seeded when an instance starts
        self._pool = NodeStreamPool(n, 0, DMis.name, rows=k)
        #: this round's undecided node-instances: ``(row, node)``
        self._und_rows = _EMPTY_I8
        self._und_nodes = _EMPTY_I8

    @staticmethod
    def message_bits(state: np.ndarray, drawn: np.ndarray) -> np.ndarray:
        """``estimate_bits`` of ``(state, drawn)`` broadcasts: the state decides."""
        return dmis_message_bits(state)

    def start(self, row: int, codes: np.ndarray, factory) -> None:
        """Start an instance in ``row`` on the input ``codes`` (``-1`` is ⊥), seeded by ``factory``."""
        self.live.start(row)
        self.state[row] = _CODE_STATE[codes + 1]
        self.drawn[row] = np.inf
        self._pool.reset_row(row, factory.seed)

    def compose(self, rows: int, woken: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The undecided woken node-instances of rows ``0 .. rows-1`` draw; ``(state, drawn)``."""
        state = self.state[:rows]
        und_rows, und_nodes = np.nonzero((state == _S_UND) & woken)
        if und_rows.size:
            self.drawn[und_rows, und_nodes] = self._pool.random(und_rows * self._n + und_nodes)
        self._und_rows = und_rows
        self._und_nodes = und_nodes
        return state, self.drawn[:rows]

    def deliver(self, rows: int, ids, seg, nbrs, ctx: DeliverContext, woken: np.ndarray) -> int:
        """Both rules for this round's drawers over the live slots; the number decided."""
        self.live.update(rows, ctx.eff_d, woken)
        und_rows = self._und_rows
        und_nodes = self._und_nodes
        if und_rows.size == 0:
            return 0
        universe = ctx.universe
        slots, pair = universe.row_slots(und_nodes)
        rows_of = und_rows[pair]
        kept = self.live.mask[rows_of, slots]
        pair = pair[kept]
        rows_of = rows_of[kept]
        nb = universe.udst[slots[kept]]
        state = self.state
        drawn = self.drawn
        # the states are this round's broadcast tags until both rules are in
        nstate = state[rows_of, nb]
        beaten = (nstate == _S_UND) & (drawn[rows_of, nb] <= drawn[rows_of, und_nodes[pair]])
        marked = np.zeros(und_rows.size, dtype=bool)
        marked[pair[nstate == _S_MIS]] = True
        blocked = marked.copy()
        blocked[pair[beaten]] = True
        joined = ~blocked
        state[und_rows[marked], und_nodes[marked]] = _S_DOM
        state[und_rows[joined], und_nodes[joined]] = _S_MIS
        return int(np.count_nonzero(marked)) + int(np.count_nonzero(joined))

    def output_codes(self, row: int, ids: np.ndarray) -> np.ndarray:
        """The paper's output encoding of ``row``'s states for ``ids``."""
        return _OUT_LOOKUP[self.state[row, ids]]

    def fill(self, instance, row: int, woken: List[int]) -> None:
        """Write ``row``'s per-node state into the DMis ``instance``."""
        state = self.state[row]
        drawn = self.drawn[row]
        instance._awake = set(woken)
        instance._live = self.live.sets(row, woken)
        instance._state = {v: _STATE_ENUMS[int(state[v])] for v in woken}
        instance._drawn = {v: float(drawn[v]) for v in woken}
        instance._undecided_n = int(np.count_nonzero(state[woken] == _S_UND))
        instance._node_rng_skips = self._pool.draw_skips(row)
