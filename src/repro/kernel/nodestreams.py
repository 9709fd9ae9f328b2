"""Vectorised per-node PCG64 streams for the array kernels.

The classic per-node randomness contract is ``rng(v) =
default_rng(derive_seed(child_seed, "node", component, v))`` with one
``Generator`` object per node (see
:meth:`repro.runtime.algorithm.DistributedAlgorithm.rng`).  Spawning those
generators dominates the first kernel round at large ``n``: one SHA-256
derivation plus one ``SeedSequence``/``PCG64`` construction is ~20µs per
node, i.e. seconds of pure setup at n = 10^5–10^6 before a single message
is composed.

:class:`NodeStreamPool` replaces the object-per-node scheme with four
``uint64`` state arrays (PCG64 state/increment, high/low words) and draws
whole batches of ``random()`` values in a handful of numpy passes.  It is
**byte-identical** to the classic path — the SeedSequence entropy-mixing
loop and the PCG64 seeding/step/output functions are reimplemented here in
vectorised 32/64-bit limb arithmetic, and the equivalence is property-tested
against ``numpy.random.default_rng`` (``tests/test_nodestreams.py``).  The
mixing-constant schedules are data-independent, so they are precomputed once
at import time.

Two subtleties:

* a seed below ``2**32`` makes ``SeedSequence`` assemble a *one-word*
  entropy array, but the pool-fill loop hashes ``0`` for every missing word
  — identical to hashing the (zero) high word of the unified two-word form,
  so no scalar fallback lane is needed;
* ``Generator.random()`` consumes exactly one PCG64 output per call, so the
  pool can hand the per-node draw *counts* back to the algorithm when a run
  finalises.  A post-run ``alg.rng(v)`` then spawns the classic generator
  and fast-forwards it by the recorded count, keeping post-run introspection
  byte-identical to the object-per-node path.

A batch of fewer than ``_SCALAR_SEEDING_LANES`` fresh lanes is seeded lane by
lane through ``numpy.random.PCG64`` itself: the vectorised seeding is about
a hundred array passes whatever the batch size, which costs more than a
few scalar constructions (the array kernels seed a handful of lanes in most
rounds after the first).  Likewise a draw over fewer than
``_SCALAR_STEP_LANES`` lanes steps each lane as one python int (about 1 µs a
lane) rather than through some thirty passes over the 64-bit limb arrays
(about 30 µs whatever the batch size).

Lanes are keyed ``row * n + v``: each row is the node streams of one
algorithm instance under its own master seed.  The SMis kernel uses the
one-row pool (lane ``v``).  :class:`~repro.kernel.mis.DMisRows` keeps one
row per DMis instance — one for the standalone ``dmis`` kernel, one per
live instance in the ``Concat`` MIS ring — and re-seeds a row with
:meth:`NodeStreamPool.reset_row` when a new instance takes it, so every
undecided node-instance draws in one batch.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

__all__ = ["NodeStreamPool", "derive_node_seeds"]

_MASK32 = 0xFFFFFFFF
# SeedSequence entropy-mixing constants (numpy _bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_XSHIFT = 16
# PCG64 (setseq_128 / XSL-RR) multiplier, split into 64-bit halves.
_PCG_MUL_HI = 0x2360ED051FC65DA4
_PCG_MUL_LO = 0x4385DF649FCCF645
_PCG_MUL = (_PCG_MUL_HI << 64) | _PCG_MUL_LO
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: ``next64 >> 11`` scaled to [0, 1) — numpy's ``random_standard_double``.
_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 1 / 2**53


def _hash_const_schedule(init: int, count: int) -> list:
    """The (data-independent) multiplier pairs of ``count`` hashmix calls."""
    schedule = []
    hc = init
    for _ in range(count):
        old = hc
        hc = (hc * _MULT_A if init == _INIT_A else hc * _MULT_B) & _MASK32
        schedule.append((old, hc))
    return schedule


# 4 pool-fill + 12 cross-mix hashmix calls share one hash_const chain; the
# 8 generate_state calls run a fresh chain from INIT_B.
_MIX_SCHEDULE = _hash_const_schedule(_INIT_A, 16)
_GEN_SCHEDULE = _hash_const_schedule(_INIT_B, 8)


def derive_node_seeds(master_seed: int, component: str, ids) -> np.ndarray:
    """Batch form of ``derive_seed(master_seed, "node", component, v)``.

    Hoists the constant SHA-256 prefix (master seed, ``"node"``, component
    name) into one partially-updated hash object that is copied per node —
    ~3x faster than rebuilding the full hash, and bit-identical to
    :func:`repro.utils.rng.derive_seed` by construction.
    """
    prefix = hashlib.sha256()
    prefix.update(str(int(master_seed)).encode("utf-8"))
    prefix.update(b"\x1f" + repr("node").encode("utf-8"))
    prefix.update(b"\x1f" + repr(component).encode("utf-8"))
    prefix.update(b"\x1f")
    out = np.empty(len(ids), dtype=np.uint64)
    copy = prefix.copy
    from_bytes = int.from_bytes
    for i, v in enumerate(ids.tolist() if isinstance(ids, np.ndarray) else ids):
        h = copy()
        h.update(repr(v).encode("utf-8"))
        out[i] = from_bytes(h.digest()[:8], "big") & 0x7FFFFFFFFFFFFFFF
    return out


def _hashmix(value: np.ndarray, step: int, schedule) -> np.ndarray:
    """One ``SeedSequence.hashmix`` call over a lane array (32-bit values)."""
    old, new = schedule[step]
    value = value ^ np.uint64(old)
    value = (value * np.uint64(new)) & np.uint64(_MASK32)
    value ^= value >> np.uint64(_XSHIFT)
    return value


def _mixmix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix``: uint32 arithmetic carried in uint64 lanes."""
    # Products stay < 2**64; the subtraction wraps mod 2**64, and masking
    # to 32 bits afterwards equals arithmetic mod 2**32 exactly.
    r = (x * np.uint64(_MIX_L) - y * np.uint64(_MIX_R)) & np.uint64(_MASK32)
    r ^= r >> np.uint64(_XSHIFT)
    return r


def _mul64(a: np.ndarray, b: np.ndarray):
    """Full 64x64 -> 128 multiply via 32-bit limbs: returns ``(hi, lo)``."""
    mask = np.uint64(_MASK32)
    s32 = np.uint64(32)
    a_lo = a & mask
    a_hi = a >> s32
    b_lo = b & mask
    b_hi = b >> s32
    t = a_lo * b_lo
    t = a_hi * b_lo + (t >> s32)
    w1 = t & mask
    w2 = t >> s32
    t2 = a_lo * b_hi + w1
    hi = a_hi * b_hi + w2 + (t2 >> s32)
    return hi, a * b


def _step128(shi, slo, ihi, ilo):
    """One PCG64 state step: ``state = state * PCG_MUL + inc`` (mod 2**128)."""
    mul_hi = np.uint64(_PCG_MUL_HI)
    mul_lo = np.uint64(_PCG_MUL_LO)
    carry_hi, new_lo = _mul64(slo, mul_lo)
    new_hi = shi * mul_lo + slo * mul_hi + carry_hi
    out_lo = new_lo + ilo
    out_hi = new_hi + ihi + (out_lo < new_lo)
    return out_hi, out_lo


def _output_xsl_rr(shi, slo) -> np.ndarray:
    """The PCG64 XSL-RR output permutation over stepped state lanes."""
    rot = shi >> np.uint64(58)
    x = shi ^ slo
    return (x >> rot) | (x << ((-rot) & np.uint64(63)))


def _seed_states(seeds: np.ndarray):
    """Vectorised ``SeedSequence(seed).generate_state(4)`` + PCG64 seeding."""
    mask = np.uint64(_MASK32)
    e0 = seeds & mask
    e1 = seeds >> np.uint64(32)
    zero = np.zeros_like(seeds)
    # Pool fill: entropy words then zeros (a one-word seed's missing high
    # word is zero, which hashes identically to the padded two-word form).
    m = [
        _hashmix(e0, 0, _MIX_SCHEDULE),
        _hashmix(e1, 1, _MIX_SCHEDULE),
        _hashmix(zero, 2, _MIX_SCHEDULE),
        _hashmix(zero, 3, _MIX_SCHEDULE),
    ]
    step = 4
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                m[i_dst] = _mixmix(m[i_dst], _hashmix(m[i_src], step, _MIX_SCHEDULE))
                step += 1
    # generate_state(4, uint64): 8 uint32 words cycled from the pool, then
    # viewed as little-endian uint64 pairs.
    words = [_hashmix(m[i % 4], i, _GEN_SCHEDULE) for i in range(8)]
    s64 = [words[2 * j] | (words[2 * j + 1] << np.uint64(32)) for j in range(4)]
    state_hi, state_lo = s64[0], s64[1]
    seq_hi, seq_lo = s64[2], s64[3]
    # pcg_setseq_128_srandom: state = 0; inc = (initseq << 1) | 1; step();
    # state += initstate; step().  The first step from zero yields ``inc``.
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < state_lo)
    hi, lo = _step128(hi, lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


#: below this many lanes, a draw steps python ints faster than the limb arrays
_SCALAR_STEP_LANES = 20

#: below this many fresh lanes, ``numpy.random.PCG64`` seeds faster than
#: :func:`_seed_states` (about 15 µs a lane against about 250 µs a batch)
_SCALAR_SEEDING_LANES = 16


def _seed_states_scalar(seeds: np.ndarray):
    """:func:`_seed_states` lane by lane, read off ``numpy.random.PCG64``."""
    states = [np.random.PCG64(seed).state["state"] for seed in seeds.tolist()]
    mask = (1 << 64) - 1
    words = [
        (s["state"] >> 64, s["state"] & mask, s["inc"] >> 64, s["inc"] & mask) for s in states
    ]
    return tuple(np.array(column, dtype=np.uint64) for column in zip(*words))


class NodeStreamPool:
    """Per-node PCG64 streams over shared uint64 state arrays.

    ``random(lanes)`` draws one double per lane — the exact values the
    classic ``alg.rng(v).random()`` loop would produce, in any batching.
    Lane ``row * n + v`` is node ``v``'s stream under row ``row``'s master
    seed.  Lanes are seeded on first use (vectorised over each batch);
    per-lane draw counts are tracked so a finalising kernel can hand them to
    the algorithm for lazy generator fast-forwarding
    (``DistributedAlgorithm.rng``).
    """

    def __init__(self, n: int, master_seed: int, component: str, rows: int = 1) -> None:
        self._n = n
        self._master_seeds = [int(master_seed)] * rows
        self._component = component
        size = rows * n
        self._state_hi = np.zeros(size, dtype=np.uint64)
        self._state_lo = np.zeros(size, dtype=np.uint64)
        self._inc_hi = np.zeros(size, dtype=np.uint64)
        self._inc_lo = np.zeros(size, dtype=np.uint64)
        self._ready = np.zeros(size, dtype=bool)
        self._draws = np.zeros(size, dtype=np.int64)

    def reset_row(self, row: int, master_seed: int) -> None:
        """Give row ``row`` a new master seed; its lanes re-seed on their next draw."""
        self._master_seeds[row] = int(master_seed)
        lanes = slice(row * self._n, (row + 1) * self._n)
        self._ready[lanes] = False
        self._draws[lanes] = 0

    def ensure(self, lanes: np.ndarray) -> None:
        """Seed the streams of ``lanes`` that have not drawn yet (vectorised)."""
        fresh = lanes[~self._ready[lanes]]
        if fresh.size == 0:
            return
        component = self._component
        if len(self._master_seeds) == 1:
            seeds = derive_node_seeds(self._master_seeds[0], component, fresh)
        else:
            n = self._n
            row_of = fresh // n
            seeds = np.empty(fresh.size, dtype=np.uint64)
            for row in np.unique(row_of).tolist():
                sel = row_of == row
                seeds[sel] = derive_node_seeds(
                    self._master_seeds[row], component, fresh[sel] - row * n
                )
        seed_states = _seed_states_scalar if fresh.size < _SCALAR_SEEDING_LANES else _seed_states
        hi, lo, ihi, ilo = seed_states(seeds)
        self._state_hi[fresh] = hi
        self._state_lo[fresh] = lo
        self._inc_hi[fresh] = ihi
        self._inc_lo[fresh] = ilo
        self._ready[fresh] = True

    def random(self, lanes: np.ndarray) -> np.ndarray:
        """One ``Generator.random()`` draw per lane, as a float64 array."""
        self.ensure(lanes)
        if lanes.size < _SCALAR_STEP_LANES:
            return self._random_scalar(lanes)
        shi = self._state_hi[lanes]
        slo = self._state_lo[lanes]
        shi, slo = _step128(shi, slo, self._inc_hi[lanes], self._inc_lo[lanes])
        self._state_hi[lanes] = shi
        self._state_lo[lanes] = slo
        self._draws[lanes] += 1
        return (_output_xsl_rr(shi, slo) >> np.uint64(11)) * _DOUBLE_SCALE

    def _random_scalar(self, lanes: np.ndarray) -> np.ndarray:
        """:meth:`random` lane by lane on python ints (``_step128`` + ``_output_xsl_rr``)."""
        his: List[int] = []
        los: List[int] = []
        out: List[int] = []
        for hi, lo, inc_hi, inc_lo in zip(
            self._state_hi[lanes].tolist(),
            self._state_lo[lanes].tolist(),
            self._inc_hi[lanes].tolist(),
            self._inc_lo[lanes].tolist(),
        ):
            state = (((hi << 64) | lo) * _PCG_MUL + ((inc_hi << 64) | inc_lo)) & _MASK128
            hi = state >> 64
            lo = state & _MASK64
            x = hi ^ lo
            rot = hi >> 58
            out.append((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11)
            his.append(hi)
            los.append(lo)
        self._state_hi[lanes] = np.array(his, dtype=np.uint64)
        self._state_lo[lanes] = np.array(los, dtype=np.uint64)
        self._draws[lanes] += 1
        return np.array(out, dtype=np.float64) * _DOUBLE_SCALE

    def draw_skips(self, row: int = 0) -> Dict[int, int]:
        """``{node: #draws}`` for every lane of ``row`` that drew at least once."""
        draws = self._draws[row * self._n : (row + 1) * self._n]
        drawn = np.flatnonzero(draws)
        return dict(zip(drawn.tolist(), draws[drawn].tolist()))
