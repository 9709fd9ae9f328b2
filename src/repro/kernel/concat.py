"""The array kernel of the paper's ``Concat`` combiners.

``Concat`` (Algorithm 1) keeps ``T1 - 1`` live ``DAlg`` instances and starts
a new one every round on the ``SAlg`` backbone's previous output.
:class:`ConcatRingKernel` runs both combiners of the paper as one ring of
``(T1 - 1) × n`` state arrays that advances all instances together, with the
standalone kernel of ``Concat``'s own ``SAlg`` instance, driven on every
awake node, as the backbone:

* ``DynamicColoring = Concat(SColor, DColor)``: a
  :class:`~repro.kernel.coloring.DColorRows` ring over
  :class:`~repro.kernel.coloring.ColoringKernel`;
* ``DynamicMIS = Concat(SMis, DMis)``: a :class:`~repro.kernel.mis.DMisRows`
  ring over :class:`~repro.kernel.mis.SMisKernel`.

The ring owns the slot order (it fills slots ``0 .. rows-1`` first, then the
oldest slot is reused), starting and retiring instances, the bundle size
and ``Concat``'s write-back; the rows own the ``DAlg`` semantics through the
rows protocol of :mod:`repro.kernel.base`.  A slot's row is started on the
backbone's output codes and the instance's ``rng_factory.child("dalg", r)``,
and its live sets start with it: every awake node joins in that round's
delivery.

Every node recomposes and is delivered to every round (the kernel marks all
awake nodes volatile): the bundle gains a new start-round key each round.
Its size is the dict bundle's :func:`~repro.runtime.messages.estimate_bits`
in closed form: :func:`bundle_frame_bits` plus the backbone's message plus
one row message (:func:`~repro.kernel.coloring.dcolor_message_bits` /
:func:`~repro.kernel.mis.dmis_message_bits`) per instance.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from repro.runtime.algorithm import AlgorithmSetup

from .base import AlgorithmKernel, DeliverContext, _value

__all__ = ["ConcatRingKernel", "bundle_frame_bits"]

#: ``estimate_bits`` of a bundle's frame: the dict overhead plus the SAlg key ``"s"``.
_FRAME_BITS = 2 + 8


def bundle_frame_bits(start_rounds) -> int:
    """The bits of a bundle's keys and overhead: ``"s"`` plus one int key per instance."""
    return _FRAME_BITS + sum(r.bit_length() + 1 for r in start_rounds)


class ConcatRingKernel(AlgorithmKernel):
    """The ``T1 - 1`` live ``DAlg`` instances of a ``Concat`` as rows of ``rows_cls``.

    The backbone is the kernel of the combiner's ``SAlg`` instance
    (``as_kernel``); it exposes its current output as ``codes()``.
    """

    def __init__(self, algorithm, rows_cls) -> None:
        super().__init__(algorithm)
        n = self.n
        k = algorithm.T1 - 1
        self._k = k
        self._backbone = algorithm._salg.as_kernel()()
        self._dalg = rows_cls(n, k)
        self._rng_factory = algorithm.config.rng_factory
        #: the backbone output codes each instance started on (its input vector)
        self._seed = np.full((k, n), -1, dtype=np.int64)
        self._factories: list = [None] * k
        self._starts = [0] * k
        self._wake_round = np.zeros(n, dtype=np.int64)
        self._round = 0
        #: live instances; the ring fills slots ``0 .. rows-1`` first
        self._rows = 0

    def set_array_mode(self, universe) -> None:
        """Size the live sets to the engine's edge universe."""
        self._dalg.live.set_universe(universe)

    # -- ring ---------------------------------------------------------------

    def _oldest_slot(self) -> int:
        return 0 if self._rows < self._k else self._round % self._k

    def _slots_oldest_first(self) -> List[int]:
        head = self._oldest_slot()
        return [(head + i) % self._k for i in range(self._rows)]

    def _start_instance(self) -> None:
        """Lines 1-3 of Algorithm 1: retire the oldest instance, start one on φ_{r-1}."""
        r = self._round
        slot = (r - 1) % self._k
        self._rows = min(self._rows + 1, self._k)
        self._starts[slot] = r
        self._factories[slot] = self._rng_factory.child("dalg", r)
        self._seed[slot] = self._backbone.codes()
        self._dalg.start(slot, self._seed[slot], self._factories[slot])

    # -- round hooks ----------------------------------------------------------

    def wake(self, ids: np.ndarray) -> None:
        fresh = ids[~self.woken[ids]]
        self.woken[fresh] = True
        self.volatile[fresh] = True
        self._wake_round[fresh] = self._round + 1
        self._dalg.live.wake(fresh)
        self._backbone.wake(ids)

    def compose(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # compose runs once per round, after the wake-ups: the round starts here
        self._round += 1
        self._start_instance()
        self._backbone.compose(ids)
        sub = self._dalg.message_bits(*self._dalg.compose(self._rows, self.woken)).sum(axis=0)
        frame = bundle_frame_bits(self._starts[slot] for slot in range(self._rows))
        new_bits = frame + self._backbone.bits[ids] + sub[ids]
        old_bits = self.bits[ids]
        moved = new_bits != old_bits
        changed = ids[moved]
        self.bits[changed] = new_bits[moved]
        return changed, old_bits[moved]

    def deliver(
        self,
        ids: np.ndarray,
        seg: np.ndarray,
        nbrs: np.ndarray,
        ctx: DeliverContext,
    ) -> None:
        self._backbone.deliver(ids, seg, nbrs, ctx)
        if ids.size == 0:
            return
        self._dalg.deliver(self._rows, ids, seg, nbrs, ctx, self.woken)

    def post_round(self, ids: np.ndarray) -> Tuple[np.ndarray, List[object]]:
        # Line 7: the output is the oldest instance's
        return self._post_outputs(ids, self._dalg.output_codes(self._oldest_slot(), ids))

    def counters(self) -> Dict[str, float]:
        return {"live_instances": float(self._rows)}

    # -- write-back -----------------------------------------------------------

    def finalize(self) -> None:
        alg = self._algorithm
        self._backbone.finalize()
        woken = np.flatnonzero(self.woken).tolist()
        alg._awake = set(woken)
        alg._round_index = self._round
        backbone = self._backbone.codes()
        alg._salg_output = {v: _value(backbone[v]) for v in woken}
        instances = OrderedDict()
        for slot in self._slots_oldest_first():
            start = self._starts[slot]
            seed = self._seed[slot]
            instance = alg._dynamic_factory()
            instance.setup(
                AlgorithmSetup(
                    n=self.n,
                    rng_factory=self._factories[slot],
                    # φ_{start-1} covers the nodes awake before the start round
                    input={v: _value(seed[v]) for v in woken if self._wake_round[v] < start},
                )
            )
            self._dalg.fill(instance, slot, woken)
            instances[start] = instance
        alg._instances = instances
