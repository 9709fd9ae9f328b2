"""Shared machinery for per-algorithm array kernels.

An :class:`AlgorithmKernel` mirrors one ``DistributedAlgorithm`` instance
with dense numpy state arrays.  The engine owns the round structure
(wake-ups, deltas, dirty sets, metrics); the kernel owns the algorithm
semantics (compose / deliver / fingerprints / outputs) and must be
*byte-identical* to the classic per-node path: identical RNG consumption,
identical float arithmetic, identical counters.

Message caching uses a ``(tag, value)`` encoding that is injective over the
algorithm's message alphabet, so "did the composed message change?" reduces
to integer/float compares.  Fingerprints reuse the same idea: a node is
either volatile (``fset`` cleared) or carries an integer fingerprint token
whose change schedules a recompose — exactly the classic
``compose_fingerprint`` protocol.

:class:`LiveSets` is the running intersection graph of the ``DAlg``
instances (DColor, DMis).  Their state lives in *rows*
(:class:`~repro.kernel.coloring.DColorRows`,
:class:`~repro.kernel.mis.DMisRows`), each row one instance, driven through
one protocol: ``start(row, codes, factory)``, ``compose(rows, woken)`` (the
``(tag, val)`` broadcasts; ``message_bits(tag, val)`` sizes them),
``deliver(rows, ids, seg, nbrs, ctx, woken)`` (the number of nodes that
decided), ``output_codes(row, ids)``, ``fill(instance, row, woken)`` and the
:class:`LiveSets` ``live``.  :class:`DynamicRowKernel` runs a standalone
``DAlg`` on one row; the ``Concat`` ring
(:class:`~repro.kernel.concat.ConcatRingKernel`) one row per live instance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["AlgorithmKernel", "DeliverContext", "DynamicRowKernel", "LiveSets"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)


class DeliverContext:
    """Per-round extras handed to :meth:`AlgorithmKernel.deliver`.

    Kernels that keep per-edge state (:class:`LiveSets`) use the universe
    layout carried here.
    """

    __slots__ = ("universe", "eff_d", "slots")

    def __init__(self, universe, eff_d: np.ndarray, slots: np.ndarray) -> None:
        self.universe = universe
        #: effective-existence mask over *doubled* universe slots this round
        self.eff_d = eff_d
        #: the kept (effective) slots backing the ``seg``/``nbrs`` arguments
        self.slots = slots


class AlgorithmKernel:
    """Base class: dense state arrays + the fingerprint/output post-pass."""

    def __init__(self, algorithm) -> None:
        self._algorithm = algorithm
        n = algorithm.n
        self.n = n
        #: nodes that have ever woken (guards re-wake, mirrors ``_awake``)
        self.woken = np.zeros(n, dtype=bool)
        #: classic ``_volatile`` — recompose every round
        self.volatile = np.zeros(n, dtype=bool)
        #: classic ``_recompose`` — recompose next round only (consumed)
        self.recompose_next = np.zeros(n, dtype=bool)
        #: bit size of each node's cached message (0 = no cached message)
        self.bits = np.zeros(n, dtype=np.int64)
        self._has_msg = np.zeros(n, dtype=bool)
        # fingerprint state: fset[v] <-> v in classic ``_fingerprints``
        self._fset = np.zeros(n, dtype=bool)
        self._fval = np.zeros(n, dtype=np.int64)
        # output cache: has_out[v] <-> v in classic ``_running`` outputs
        self._has_out = np.zeros(n, dtype=bool)
        self._out_code = np.zeros(n, dtype=np.int64)

    # -- hooks implemented per algorithm -------------------------------------

    def wake(self, ids: np.ndarray) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def compose(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:  # pragma: no cover
        """Compose messages for ``ids`` (ascending); returns changed ids + old bits."""
        raise NotImplementedError

    def deliver(
        self,
        ids: np.ndarray,
        seg: np.ndarray,
        nbrs: np.ndarray,
        ctx: DeliverContext,
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:  # pragma: no cover - abstract
        """Fresh ``algorithm_counters`` dict, classic key order."""
        raise NotImplementedError

    def post_round(self, ids: np.ndarray) -> Tuple[np.ndarray, List[object]]:  # pragma: no cover
        """Fingerprint + output pass over the delivered ids."""
        raise NotImplementedError

    def finalize(self) -> None:  # pragma: no cover - abstract
        """Write kernel state back into the algorithm instance."""
        raise NotImplementedError

    # -- shared helpers ------------------------------------------------------

    def _post_fingerprints(self, ids: np.ndarray, vol_rows: np.ndarray, fval_rows: np.ndarray) -> None:
        """Classic post-deliver fingerprint pass, vectorised.

        ``vol_rows`` marks rows whose fingerprint is VOLATILE; ``fval_rows``
        carries the integer fingerprint token for the remaining rows.
        """

        vol_ids = ids[vol_rows]
        if vol_ids.size:
            self.volatile[vol_ids] = True
            self._fset[vol_ids] = False
        stable = ~vol_rows
        st_ids = ids[stable]
        if st_ids.size:
            st_val = fval_rows[stable]
            self.volatile[st_ids] = False
            changed = ~self._fset[st_ids] | (self._fval[st_ids] != st_val)
            self.recompose_next[st_ids[changed]] = True
            self._fset[st_ids] = True
            self._fval[st_ids] = st_val

    def _post_outputs(self, ids: np.ndarray, code_rows: np.ndarray) -> Tuple[np.ndarray, List[object]]:
        """Diff output codes against the running cache; ``-1`` encodes ``None``."""

        prev = self._out_code[ids]
        diff = ~self._has_out[ids] | (prev != code_rows)
        changed_ids = ids[diff]
        if changed_ids.size == 0:
            return _EMPTY_I8, []
        new_codes = code_rows[diff]
        self._out_code[changed_ids] = new_codes
        self._has_out[changed_ids] = True
        values = [None if c < 0 else int(c) for c in new_codes.tolist()]
        return changed_ids, values


class LiveSets:
    """The live intersection-graph neighbourhoods of ``k`` instances.

    Row ``i``'s live set is a boolean mask over the doubled edge-universe
    slots, ANDed with ``eff_d`` every round.  A node's first delivery in an
    instance — every awake node when the instance starts, a node woken later
    in its wake round — sets its slots to its current neighbourhood; until
    then its live set is ``None`` (``started`` is ``False``).
    """

    def __init__(self, n: int, k: int) -> None:
        self._k = k
        #: the node's first delivery in the instance has run
        self.started = np.zeros((k, n), dtype=bool)
        self.mask = np.zeros((k, 0), dtype=bool)  # sized by ``set_universe``
        #: nodes woken this round: they join every live instance in :meth:`update`
        self._joining = _EMPTY_I8
        #: the row whose instance starts this round: every awake node joins it
        self._starting: Optional[int] = None

    def set_universe(self, universe) -> None:
        """Size the masks to the engine's edge universe."""
        self._universe = universe
        self.mask = np.zeros((self._k, universe.usrc.size), dtype=bool)

    def wake(self, fresh: np.ndarray) -> None:
        """``fresh`` woke this round: they join the live instances at the next :meth:`update`."""
        self._joining = fresh

    def start(self, row: int) -> None:
        """An instance starts in ``row`` this round; its nodes join in :meth:`update`."""
        self.started[row] = False
        self._starting = row

    def update(self, rows: int, eff_d: np.ndarray, awake: np.ndarray) -> None:
        """Deliver: restrict rows ``0 .. rows-1`` to this round's edges, then join.

        Every ``awake`` node joins the row started this round, and the nodes
        woken this round join every row.
        """
        live = self.mask[:rows]
        np.logical_and(live, eff_d, out=live)
        if self._starting is not None:
            # unwoken nodes have no effective edges, so the row is ``eff_d`` itself
            live[self._starting] = eff_d
            self.started[self._starting] = awake
            self._starting = None
        joining = self._joining
        if joining.size:
            slots, _ = self._universe.row_slots(joining)
            live[:, slots] = eff_d[slots]
            self.started[:rows, joining] = True
            self._joining = _EMPTY_I8

    def sets(self, row: int, woken: List[int]) -> Dict[int, Optional[frozenset]]:
        """Each woken node's live neighbour set in ``row`` (``None`` before its first delivery)."""
        live: Dict[int, Optional[frozenset]] = dict.fromkeys(woken)
        started = self.started[row]
        started_ids = np.asarray([v for v in woken if started[v]], dtype=np.int64)
        if started_ids.size:
            uni = self._universe
            row_slots, seg = uni.row_slots(started_ids)
            kept = self.mask[row, row_slots]
            kept_dst = uni.udst[row_slots[kept]]
            bounds = np.searchsorted(seg[kept], np.arange(started_ids.size + 1))
            for j, v in enumerate(started_ids.tolist()):
                live[v] = frozenset(kept_dst[bounds[j] : bounds[j + 1]].tolist())
        return live


class DynamicRowKernel(AlgorithmKernel):
    """A standalone ``DAlg`` (DColor, DMis) with ⊥ input: one row of ``rows_cls``.

    The row starts with every node pending (uncoloured / undecided), and each
    node joins its live sets in its wake round.  The message cache is the
    ``(tag, val)`` broadcast: pending nodes are volatile, decided ones carry
    their output code as the fingerprint, as the classic ``compose_fingerprint``
    does, so the dirty frontier is the incremental path's.
    """

    def __init__(self, algorithm, rows_cls) -> None:
        super().__init__(algorithm)
        n = self.n
        self._rows = rows_cls(n, 1)
        self._rows.start(0, np.full(n, -1, dtype=np.int64), algorithm.config.rng_factory)
        self._mtag = np.zeros(n, dtype=np.int64)
        self._mval = np.zeros(n, dtype=np.float64)
        self._pending = 0

    def set_array_mode(self, universe) -> None:
        """Size the live sets to the engine's edge universe."""
        self._rows.live.set_universe(universe)

    def wake(self, ids: np.ndarray) -> None:
        self.recompose_next[ids] = True
        fresh = ids[~self.woken[ids]]
        self.woken[fresh] = True
        self._rows.live.wake(fresh)
        self._pending += int(fresh.size)

    def compose(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        tag, val = self._rows.compose(1, self.woken)
        tag = tag[0, ids]
        val = val[0, ids]
        keep = ~(self._has_msg[ids] & (self._mtag[ids] == tag) & (self._mval[ids] == val))
        chg = ids[keep]
        old_bits = self.bits[chg]
        self._has_msg[chg] = True
        self._mtag[chg] = tag[keep]
        self._mval[chg] = val[keep]
        self.bits[chg] = self._rows.message_bits(tag[keep], val[keep])
        return chg, old_bits

    def deliver(
        self,
        ids: np.ndarray,
        seg: np.ndarray,
        nbrs: np.ndarray,
        ctx: DeliverContext,
    ) -> None:
        if ids.size == 0:
            return
        self._pending -= self._rows.deliver(1, ids, seg, nbrs, ctx, self.woken)

    def post_round(self, ids: np.ndarray) -> Tuple[np.ndarray, List[object]]:
        codes = self._rows.output_codes(0, ids)
        self._post_fingerprints(ids, codes < 0, codes)
        return self._post_outputs(ids, codes)

    def counters(self) -> Dict[str, float]:
        return {self._rows.counter: float(self._pending)}

    def finalize(self) -> None:
        self._rows.fill(self._algorithm, 0, np.flatnonzero(self.woken).tolist())


def _value(code) -> object:
    """An output code as the algorithm's value (``-1`` is ⊥)."""
    code = int(code)
    return code if code >= 0 else None
