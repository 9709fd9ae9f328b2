"""Array kernels for the paper's ``Concat`` combiners.

``Concat`` (Algorithm 1) keeps ``T1 - 1`` live ``DAlg`` instances and starts
a new one every round on the ``SAlg`` backbone's previous output.  Both
combiners of the paper run here as one ring of ``(T1 - 1) × n`` state arrays
that advances all instances together, with the standalone kernel of
``Concat``'s own ``SAlg`` instance, driven on every awake node, as the
backbone:

* :class:`ConcatColoringKernel` — ``DynamicColoring = Concat(SColor,
  DColor)`` over :class:`~repro.kernel.coloring.ColoringKernel`;
* :class:`ConcatMisKernel` — ``DynamicMIS = Concat(SMis, DMis)`` over
  :class:`~repro.kernel.mis.SMisKernel`.

:class:`ConcatRingKernel` is what both share: the slot order (the ring fills
slots ``0 .. rows-1`` first, then the oldest slot is reused), starting and
retiring instances, the bundle size and ``Concat``'s write-back.  The
instances' intersection graphs are one :class:`~repro.kernel.base.LiveSets`
with a row per slot: a row starts when its instance does, and every awake
node joins it in that round's delivery.

Every node recomposes and is delivered to every round (the kernel marks all
awake nodes volatile): the bundle gains a new start-round key each round.
Its size is the dict bundle's :func:`~repro.runtime.messages.estimate_bits`
in closed form: :func:`bundle_frame_bits` plus the backbone's message plus
one :func:`dcolor_message_bits` / :func:`dmis_message_bits` per instance.

DColor ring, per instance and node:

* ``color`` (``-1`` = ⊥) and ``started`` (the start communication round has
  run);
* the broadcast of the current round as ``(tag, val)``: ``INIT`` carries the
  input colour, ``FIXED`` the colour, ``TENT`` the tentative choice (``-1``
  encodes ``None``);
* the palette complement ``(start degree, excluded)`` of every node that was
  uncoloured at its start round (a node coloured by its input keeps the
  empty palette), as :class:`ColoringKernel` keeps SColor's.

A started node's live neighbours send only ``FIXED`` or ``TENT``, and a
``FIXED`` colour is never retracted, so a node adopts its choice iff no live
neighbour's value equals it, and after the start round its palette loses
only colours a live neighbour fixes for the first time.  The uncoloured
node-instances draw from their instance's own per-node streams
(``rng_factory.child("dalg", r)``) in a python loop; they are few once the
backbone has coloured the graph.

The DMis ring is a :class:`~repro.kernel.mis.DMisRows` with a row per slot,
each re-seeded from the SMis backbone's states and the instance's
``rng_factory.child("dalg", r)`` when its instance starts; the standalone
DMis kernel drives the same rows.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from repro.algorithms.coloring.dcolor import DColor
from repro.runtime.algorithm import AlgorithmSetup

from .base import AlgorithmKernel, DeliverContext, LiveSets
from .coloring import ColoringKernel, palette_draw
from .mis import DMisRows, SMisKernel, _OUT_LOOKUP, _S_UND, dmis_message_bits

__all__ = [
    "ConcatColoringKernel",
    "ConcatMisKernel",
    "ConcatRingKernel",
    "bundle_frame_bits",
    "dcolor_message_bits",
    "dmis_message_bits",
]

_T_INIT = 0
_T_FIXED = 1
_T_TENT = 2

#: ``estimate_bits`` of a bundle's frame: the dict overhead plus the SAlg key ``"s"``.
_FRAME_BITS = 2 + 8


def bundle_frame_bits(start_rounds) -> int:
    """The bits of a bundle's keys and overhead: ``"s"`` plus one int key per instance."""
    return _FRAME_BITS + sum(r.bit_length() + 1 for r in start_rounds)


def dcolor_message_bits(tag: np.ndarray, val: np.ndarray) -> np.ndarray:
    """``estimate_bits`` of ``(tag, val)`` DColor messages, ``val == -1`` for ``None``.

    ``("init" | "tent", x)`` costs ``2 + 32 + bits(x)`` and ``("fixed", c)``
    ``2 + 40 + bits(c)``, where an int costs its bit length plus one and
    ``None`` one bit.  ``frexp``'s exponent is ``int.bit_length`` for
    non-negative ints below ``2**53``.
    """
    length = np.frexp(np.maximum(val, 0).astype(np.float64))[1]
    return np.where(tag == _T_FIXED, 43, 35) + length


class ConcatRingKernel(AlgorithmKernel):
    """The ``T1 - 1`` live ``DAlg`` instances of a ``Concat`` as one ring.

    A ring implements the per-instance hooks: :meth:`_backbone_codes`,
    :meth:`_seed_row`, :meth:`_compose_rows`, :meth:`_deliver_rows`,
    :meth:`_output_codes` and :meth:`_fill_instance`.
    """

    def __init__(self, algorithm, backbone: AlgorithmKernel) -> None:
        super().__init__(algorithm)
        n = self.n
        k = algorithm.T1 - 1
        self._k = k
        self._backbone = backbone
        self._rng_factory = algorithm.config.rng_factory
        #: the backbone output codes each instance started on (its input vector)
        self._seed = np.full((k, n), -1, dtype=np.int64)
        self._live = LiveSets(n, k)
        self._factories: list = [None] * k
        self._starts = [0] * k
        self._wake_round = np.zeros(n, dtype=np.int64)
        self._round = 0
        #: live instances; the ring fills slots ``0 .. rows-1`` first
        self._rows = 0

    def set_array_mode(self, universe) -> None:
        """Size the live sets to the engine's edge universe."""
        self._live.set_universe(universe)

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
        self._seed[slot] = self._backbone_codes()
        self._live.start(slot)
        self._seed_row(slot)

    # -- round hooks ----------------------------------------------------------

    def wake(self, ids: np.ndarray) -> None:
        fresh = ids[~self.woken[ids]]
        self.woken[fresh] = True
        self.volatile[fresh] = True
        self._wake_round[fresh] = self._round + 1
        self._live.wake(fresh)
        self._backbone.wake(ids)

    def compose(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        # compose runs once per round, after the wake-ups: the round starts here
        self._round += 1
        self._start_instance()
        self._backbone.compose(ids)
        sub = self._compose_rows()
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
        self._live.update(self._rows, ctx.eff_d, self.woken)
        self._deliver_rows(ids, seg, nbrs, ctx)

    def post_round(self, ids: np.ndarray) -> Tuple[np.ndarray, List[object]]:
        # Line 7: the output is the oldest instance's
        return self._post_outputs(ids, self._output_codes(self._oldest_slot(), ids))

    def counters(self) -> Dict[str, float]:
        return {"live_instances": float(self._rows)}

    # -- write-back -----------------------------------------------------------

    def finalize(self) -> None:
        alg = self._algorithm
        self._backbone.finalize()
        woken = np.flatnonzero(self.woken).tolist()
        alg._awake = set(woken)
        alg._round_index = self._round
        backbone = self._backbone_codes()
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
            instance._awake = set(woken)
            instance._live = self._live.sets(slot, woken)
            self._fill_instance(instance, slot, woken)
            instances[start] = instance
        alg._instances = instances

    # -- per-ring hooks ---------------------------------------------------------

    def _backbone_codes(self) -> np.ndarray:  # pragma: no cover - abstract
        """The backbone's current output per node as codes (``-1`` is ⊥)."""
        raise NotImplementedError

    def _seed_row(self, slot: int) -> None:  # pragma: no cover - abstract
        """Reset ``slot``'s state for the instance that starts in it this round."""
        raise NotImplementedError

    def _compose_rows(self) -> np.ndarray:  # pragma: no cover - abstract
        """Compose every live instance; the summed sub-message bits per node."""
        raise NotImplementedError

    def _deliver_rows(self, ids, seg, nbrs, ctx) -> None:  # pragma: no cover - abstract
        """Deliver to every live instance (the live sets are current)."""
        raise NotImplementedError

    def _output_codes(self, slot: int, ids: np.ndarray) -> np.ndarray:  # pragma: no cover
        """The output codes of the instance in ``slot`` for ``ids``."""
        raise NotImplementedError

    def _fill_instance(self, instance, slot: int, woken: List[int]) -> None:  # pragma: no cover
        """Write ``slot``'s per-node state into the rebuilt instance."""
        raise NotImplementedError


class ConcatColoringKernel(ConcatRingKernel):
    """The ``T1 - 1`` live DColor instances of ``DynamicColoring`` as one ring."""

    def __init__(self, algorithm) -> None:
        super().__init__(
            algorithm,
            ColoringKernel(algorithm._salg, uncolor_enabled=True, track_uncolor_events=True),
        )
        n = self.n
        k = self._k
        self._color = np.full((k, n), -1, dtype=np.int64)
        self._tag = np.zeros((k, n), dtype=np.int64)
        self._val = np.full((k, n), -1, dtype=np.int64)
        #: adopted last round, so broadcasting ``FIXED`` for the first time
        self._fresh = np.zeros((k, n), dtype=bool)
        self._pal: List[Dict[int, Tuple[int, Tuple[int, ...]]]] = [{} for _ in range(k)]
        self._gens: List[Dict[int, np.random.Generator]] = [{} for _ in range(k)]

    def _backbone_codes(self) -> np.ndarray:
        return self._backbone._color

    def _seed_row(self, slot: int) -> None:
        self._color[slot] = self._seed[slot]
        self._fresh[slot] = False
        self._pal[slot] = {}
        self._gens[slot] = {}

    def _integers(self, slot: int, v: int):
        """The bound ``integers`` of ``v``'s DColor stream in ``slot`` (cached per instance)."""
        gen = self._gens[slot].get(v)
        if gen is None:
            gen = self._gens[slot][v] = self._factories[slot].node_stream(DColor.name, v)
        return gen.integers

    def _compose_rows(self) -> np.ndarray:
        rows = self._rows
        color = self._color[:rows]
        started = self._live.started[:rows]
        tag = np.where(started, np.where(color >= 0, _T_FIXED, _T_TENT), _T_INIT)
        val = color.copy()
        draw_rows, draw_nodes = np.nonzero(tag == _T_TENT)
        if draw_rows.size:
            pal = self._pal
            integers = self._integers
            val[draw_rows, draw_nodes] = [
                palette_draw(*pal[i][v], integers, i, v)
                for i, v in zip(draw_rows.tolist(), draw_nodes.tolist())
            ]
        self._tag[:rows] = tag
        self._val[:rows] = val
        return dcolor_message_bits(tag, val).sum(axis=0)

    def _deliver_rows(self, ids, seg, nbrs, ctx) -> None:
        n = self.n
        rows = self._rows
        src = ids[seg]
        tag = self._tag[:rows]
        val = self._val[:rows]
        color = self._color[:rows]
        ntag = tag[:, nbrs]
        nval = val[:, nbrs]
        lv = self._live.mask[:rows][:, ctx.slots]

        # the start round: an uncoloured node's palette is [deg + 1] minus its
        # neighbours' INIT / FIXED colours
        starting = (tag == _T_INIT) & self.woken
        fresh_start = starting & (color < 0)
        if fresh_start.any():
            self._start_palettes(fresh_start, src, ntag, nval)

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
        fresh = self._fresh[:rows]
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

    def _start_palettes(self, fresh_start, src, ntag, nval) -> None:
        """``set(range(1, deg + 2)) - neighbour colours`` for nodes starting uncoloured."""
        n = self.n
        stride = n + 2  # colours are at most deg + 1 <= n
        deg = np.bincount(src, minlength=n)
        hit = (
            fresh_start[:, src]
            & (ntag != _T_TENT)
            & (nval >= 1)
            & (nval <= deg[src] + 1)
        )
        hit_rows, hit_slots = np.nonzero(hit)
        keys = np.unique((hit_rows * n + src[hit_slots]) * stride + nval[hit_rows, hit_slots])
        owners = keys // stride
        colours = (keys % stride).tolist()
        start_rows, start_nodes = np.nonzero(fresh_start)
        flat = start_rows * n + start_nodes
        lo = np.searchsorted(owners, flat, side="left").tolist()
        hi = np.searchsorted(owners, flat, side="right").tolist()
        pal = self._pal
        degrees = deg[start_nodes].tolist()
        for j, (i, v) in enumerate(zip(start_rows.tolist(), start_nodes.tolist())):
            pal[i][v] = (degrees[j], tuple(colours[lo[j] : hi[j]]))

    def _output_codes(self, slot: int, ids: np.ndarray) -> np.ndarray:
        return self._color[slot, ids]

    def _fill_instance(self, instance, slot: int, woken: List[int]) -> None:
        color = self._color[slot]
        started = self._live.started[slot]
        val = self._val[slot]
        pal = self._pal[slot]
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
                instance._palette[v] = set(range(1, entry[0] + 2)) - set(entry[1])
                instance._tentative[v] = _value(val[v])
        instance._uncolored_count = sum(1 for v in woken if color[v] < 0)
        instance._node_rngs = dict(self._gens[slot])


class ConcatMisKernel(ConcatRingKernel):
    """The ``T1 - 1`` live DMis instances of ``DynamicMIS`` as one ring of :class:`DMisRows`."""

    def __init__(self, algorithm) -> None:
        salg = algorithm._salg
        super().__init__(algorithm, SMisKernel(salg, undecide_enabled=salg._undecide_enabled))
        self._dmis = DMisRows(self.n, self._k)

    def _backbone_codes(self) -> np.ndarray:
        return _OUT_LOOKUP[self._backbone._state]

    def _seed_row(self, slot: int) -> None:
        # a node woken later joins undecided: the backbone's code for it is 0
        self._dmis.seed(slot, self._backbone._state, self._factories[slot].seed)

    def _compose_rows(self) -> np.ndarray:
        state = self._dmis.state[: self._rows]
        self._dmis.draw(*np.nonzero((state == _S_UND) & self.woken))
        return dmis_message_bits(state).sum(axis=0)

    def _deliver_rows(self, ids, seg, nbrs, ctx) -> None:
        self._dmis.deliver(self._live.mask, ctx.universe)

    def _output_codes(self, slot: int, ids: np.ndarray) -> np.ndarray:
        return self._dmis.output_codes(slot, ids)

    def _fill_instance(self, instance, slot: int, woken: List[int]) -> None:
        self._dmis.fill(instance, slot, woken)


def _value(code) -> object:
    """An output code as the algorithm's value (``-1`` is ⊥)."""
    code = int(code)
    return code if code >= 0 else None
