"""The round engine executing algorithm kernels over numpy state arrays.

:class:`ArrayKernelEngine` requires a :class:`~repro.kernel.plan.KernelPlan`
from the adversary: the round loop never materialises python topologies,
never calls ``Adversary.step`` and records each round's delta alone (no
graph, so no checkpoint snapshot).
Topology evolution is a boolean presence mask over a static edge universe;
the engine diffs successive masks to recover the exact deltas the classic
path would have stored.  Adversaries without a plan run on the classic
incremental (or, without the pure contract, full) loop instead.  A kernel
that keeps every awake node volatile gets dense every-node rounds: the
frontier estimate saturates and every awake node is composed and delivered.

The engine is byte-identical to the classic full/incremental loops — the
``delivery-equivalence`` contract (:mod:`repro.verify.contracts`) checks it
on every committed scenario config, and the equivalence tests cover the full
algorithm × adversary × wakeup matrix.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from repro.dynamics.topology import (
    EMPTY_DELTA,
    ArrayDelta,
    TopologyDelta,
)
from repro.runtime.metrics import RoundMetrics
from repro.runtime.simulator import RoundActivity
from repro.runtime.trace import ExecutionTrace

from .base import AlgorithmKernel, DeliverContext
from .plan import KernelPlan

__all__ = ["ArrayKernelEngine"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_BOOL = np.empty(0, dtype=bool)


class _BitsAccounting:
    """The classic ``_record_bits`` histogram logic over array aggregates.

    Tracks ``count`` = number of nodes whose current message size equals
    ``max``, so the full O(n) rescan of ``kernel.bits`` only happens when
    the *last* maximum-sized message shrinks or leaves — the histogram
    semantics of the incremental path, without per-node bookkeeping.
    """

    __slots__ = ("total", "max", "count")

    def __init__(self) -> None:
        self.total = 0
        self.max = 0
        self.count = 0

    def account(self, kernel: AlgorithmKernel, changed: np.ndarray, old_bits: np.ndarray) -> None:
        if changed.size == 0:
            return
        new_bits = kernel.bits[changed]
        self.total += int(new_bits.sum()) - int(old_bits.sum())
        mx = int(new_bits.max())
        if mx > self.max:
            # no pre-existing node can sit at mx, so the holders are exactly
            # the changed nodes that reached it
            self.max = mx
            self.count = int((new_bits == mx).sum())
            return
        if mx == self.max:
            self.count += int((new_bits == mx).sum())
        self.count -= int((old_bits == self.max).sum())
        if self.count <= 0:
            self._rescan(kernel)

    def _rescan(self, kernel: AlgorithmKernel) -> None:
        if kernel.bits.size:
            self.max = int(kernel.bits.max())
            self.count = int((kernel.bits == self.max).sum())
        else:
            self.max = 0
            self.count = 0


class ArrayKernelEngine:
    """Plan-driven array execution: no python topologies in the round loop.

    :meth:`run_round` runs one round and records it into ``trace``; the
    simulator's shared epilogue does the rest.
    """

    def __init__(self, trace: ExecutionTrace, kernel: AlgorithmKernel, plan: KernelPlan) -> None:
        self._trace = trace
        self._kernel = kernel
        self._plan = plan
        n = trace.n
        # Routed through the shm/universe cache: a published base graph (or a
        # previous run over the same universe in this process) hands back the
        # mapped CSR arrays instead of re-sorting them.  Imported lazily —
        # :mod:`repro.exec` pulls in the scenario layer, which imports us.
        from repro.exec.shm import shared_edge_universe

        self._universe = shared_edge_universe(n, plan.universe_edges)
        self._unodes = frozenset(plan.nodes)
        self._unodes_arr = np.fromiter(sorted(self._unodes), dtype=np.int64, count=len(self._unodes))
        k = self._unodes_arr.size
        # the all-rows gather fast path needs node id == dirty row index
        self._ids_arange = bool(k) and int(self._unodes_arr[0]) == 0 and int(self._unodes_arr[-1]) == k - 1
        self._awake_mask = np.zeros(n, dtype=bool)
        self._awake_set: FrozenSet[int] = frozenset()
        self._awake_ids = _EMPTY_I8
        self._awake_count = 0
        self._fully_awake = False
        m = self._universe.m
        self._edge_awake = np.zeros(m, dtype=bool)
        #: double-buffered effective mask — masked rounds alternate between
        #: the two so the previous round's mask stays valid for the diff
        self._eff_buf = (np.zeros(m, dtype=bool), np.zeros(m, dtype=bool))
        self._eff = self._eff_buf[0]
        #: per-round scratch reused across rounds (no fresh m-sized allocs)
        self._diff = np.zeros(m, dtype=bool)
        self._eff_d = np.zeros(self._universe.usrc.size, dtype=bool)
        self._num_edges = 0
        self._scratch = np.zeros(n, dtype=bool)
        self._bits = _BitsAccounting()
        self._running: Dict[int, Optional[int]] = {}
        self._outputs_obj: Dict[int, Optional[int]] = {}
        self._stats_mode = trace.retention == "stats"
        if hasattr(kernel, "set_array_mode"):
            kernel.set_array_mode(self._universe)

    # -- wake-ups ----------------------------------------------------------------

    def _advance_wakeup(self, round_index: int) -> np.ndarray:
        if self._fully_awake:
            return _EMPTY_I8
        wakeup = self._plan.wakeup
        if wakeup is None:
            current = self._unodes
        else:
            current = frozenset(wakeup.awake_at(round_index)) & self._unodes
        # wake-ups accumulate, as in every adversary's ``step``
        newly = current - self._awake_set
        if not newly:
            return _EMPTY_I8
        arr = np.fromiter(sorted(newly), dtype=np.int64, count=len(newly))
        self._awake_set |= newly
        self._awake_mask[arr] = True
        self._awake_count += arr.size
        self._awake_ids = np.flatnonzero(self._awake_mask)
        if self._universe.m:
            np.logical_and(
                self._awake_mask[self._universe.eu],
                self._awake_mask[self._universe.ev],
                out=self._edge_awake,
            )
        if self._awake_set == self._unodes:
            self._fully_awake = True
        return arr

    # -- the round ---------------------------------------------------------------

    def run_round(self, round_index: int) -> tuple[RoundMetrics, RoundActivity]:
        """Run and record round ``round_index``."""
        trace = self._trace
        kernel = self._kernel
        uni = self._universe

        newly = self._advance_wakeup(round_index)
        present = self._plan.advance(round_index)
        prev_eff = self._eff
        if self._fully_awake:
            eff = present
        else:
            # alternate between the two owned buffers so ``prev_eff`` stays
            # valid for the diff below (``present`` is plan-owned)
            bufs = self._eff_buf
            eff = bufs[1] if prev_eff is bufs[0] else bufs[0]
            np.logical_and(present, self._edge_awake, out=eff)
        if eff is prev_eff:
            added_idx = removed_idx = _EMPTY_I8
        else:
            # one flatnonzero over the diff mask, then split by direction —
            # the changed slots are few, so the masked gathers are O(changes)
            diff = self._diff
            np.not_equal(eff, prev_eff, out=diff)
            changed_slots = np.flatnonzero(diff)
            if changed_slots.size:
                added_mask = eff[changed_slots]
                added_idx = changed_slots[added_mask]
                removed_idx = changed_slots[~added_mask]
            else:
                added_idx = removed_idx = _EMPTY_I8
            self._eff = eff
        self._num_edges += int(added_idx.size) - int(removed_idx.size)

        if newly.size or added_idx.size or removed_idx.size:
            # ``newly`` transfers ownership: the delta materialises its
            # frozensets only if a consumer ever asks
            delta: TopologyDelta = ArrayDelta(newly, uni.eu, uni.ev, added_idx, removed_idx)
        else:
            delta = EMPTY_DELTA

        if newly.size:
            kernel.wake(newly)

        # compose (classic: volatile | scheduled recompose | newly awake)
        recompose_mask = kernel.volatile | kernel.recompose_next
        kernel.recompose_next[:] = False
        recompose_ids = np.flatnonzero(recompose_mask)
        changed_ids, old_bits = kernel.compose(recompose_ids)
        self._bits.account(kernel, changed_ids, old_bits)

        # dirty frontier (classic dense fallback included): the frontier is
        # roughly ``changed × (1 + avg degree) + #volatile`` nodes, so once
        # that estimate saturates the awake set, delivering to everyone is
        # cheaper than computing a frontier that covers everyone anyway
        frontier_mult = max(4, 1 + (2 * self._num_edges) // max(self._awake_count, 1))
        frontier_est = frontier_mult * changed_ids.size + int(
            np.count_nonzero(kernel.volatile)
        )
        if frontier_est >= self._awake_count:
            dirty_ids = self._awake_ids
        else:
            scratch = self._scratch
            scratch[:] = False
            if added_idx.size:
                scratch[uni.eu[added_idx]] = True
                scratch[uni.ev[added_idx]] = True
            if removed_idx.size:
                scratch[uni.eu[removed_idx]] = True
                scratch[uni.ev[removed_idx]] = True
            if newly.size:
                scratch[newly] = True
            np.logical_or(scratch, kernel.volatile, out=scratch)
            if changed_ids.size:
                scratch[changed_ids] = True
                slots, _ = uni.row_slots(changed_ids)
                if slots.size:
                    kept = slots[eff[uni.uedge[slots]]]
                    scratch[uni.udst[kept]] = True
            np.logical_and(scratch, self._awake_mask, out=scratch)
            dirty_ids = np.flatnonzero(scratch)
            # a near-saturated frontier costs more to gather row-by-row than
            # the all-rows fast path; widening dirty to the awake set is
            # byte-identical (skipped nodes have unchanged inboxes)
            if 10 * dirty_ids.size >= 9 * self._awake_count:
                dirty_ids = self._awake_ids

        # deliver
        if uni.m:
            eff_d = self._eff_d
            np.take(eff, uni.uedge, out=eff_d)
        else:
            eff_d = _EMPTY_BOOL
        if self._ids_arange and self._fully_awake and dirty_ids.size == self._unodes_arr.size:
            slots = np.flatnonzero(eff_d)
            seg = uni.usrc[slots]
        else:
            slots, seg = uni.row_slots(dirty_ids)
            if slots.size:
                kept_mask = eff_d[slots]
                slots = slots[kept_mask]
                seg = seg[kept_mask]
        nbrs = uni.udst[slots]
        ctx = DeliverContext(uni, eff_d, slots)
        kernel.deliver(dirty_ids, seg, nbrs, ctx)

        # fingerprints + outputs
        changed_out, values = kernel.post_round(dirty_ids)
        metrics = RoundMetrics(
            round_index=round_index,
            num_awake=self._awake_count,
            num_edges=self._num_edges,
            messages_sent=self._awake_count,
            messages_delivered=2 * self._num_edges,
            max_message_bits=self._bits.max,
            total_message_bits=self._bits.total,
            outputs_changed=int(changed_out.size),
            algorithm_counters=kernel.counters(),
        )
        if self._stats_mode:
            # O(#changes) retention: the trace keeps only this round's
            # update; the running vector is mutated in place and the O(n)
            # per-round copy is skipped entirely.
            update: Dict[int, Optional[int]] = (
                dict(zip(changed_out.tolist(), values)) if changed_out.size else {}
            )
            self._running.update(update)
            trace.record_stats(delta, update, metrics, changed_out)
        else:
            if changed_out.size:
                running = self._running
                for v, value in zip(changed_out.tolist(), values):
                    running[v] = value
                outputs = dict(running)
            else:
                outputs = self._outputs_obj
            self._outputs_obj = outputs
            trace.record(delta, outputs, metrics, changed_out)
        # the activity object is cheap: its frozenset views materialise
        # lazily, so rounds nobody inspects never pay the conversions
        # (``recompose_ids``/``dirty_ids``/``changed_out`` are never mutated
        # after this point)
        activity = RoundActivity(
            round_index=round_index,
            mode="kernel",
            delta=delta,
            composed=recompose_ids,
            delivered=dirty_ids,
            changed_outputs=changed_out,
        )
        return metrics, activity

    def finalize(self) -> None:
        self._kernel.finalize()
