"""Named random sub-streams derived from a single run seed.

Each stream is an independent numpy Generator keyed by (seed, label), so
adding draws to one stream never perturbs another. Per-step streams are
additionally keyed by the step index, which keeps scheduler decisions
aligned across runs that differ only in how often they fire.

A per-step stream is also available without ``default_rng``:
``first_draws`` computes, for a block of steps at once and by numpy's own
seeding arithmetic (SeedSequence pool mixing, then PCG64 seeding), each
step's PCG64 state right after its first draw, and that draw (one XSL-RR
output), as uint64 arrays; the 128-bit arithmetic runs on (hi, lo) halves.
``FirstDraws`` serves the first draw step by step, and loads a step's
state into one reused Generator when the step needs the rest of its
stream.

A run's ``world``, ``exploration`` and ``observation`` streams, and a
sweep's ``world`` and ``observation`` ones, draw one scalar at a time, so
``ScalarStream`` serves them from blocks of their PCG64's raw output by
the rules numpy's Generator applies to that output, which keeps the bits.
"""

from __future__ import annotations

import numpy as np

# Stable stream ids; never reorder, CSV reproducibility depends on them.
STREAMS = {
    "world": 1,
    "exploration": 2,
    "wandering": 3,
    "observation": 4,
    "sweep": 5,
}


def substream(seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), STREAMS[label]])


def per_step(seed: int, label: str, t: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), STREAMS[label], int(t)])


# numpy's SeedSequence (bit_generator.pyx): a pool of 4 uint32 words, hashed
# with INIT_A/MULT_A, mixed pairwise, then drawn out with INIT_B/MULT_B.
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = np.uint32(16)
# numpy's PCG64 (pcg64.h): a 128-bit LCG with the XSL-RR output.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# Seeding steps the LCG twice (state += initstate between) and random()
# steps it once more: state3 = (inc + init) * M**2 + inc * (M + 1).
PCG_MULT_SQ = PCG_MULT * PCG_MULT & MASK128
MASK32_U, SHIFT32 = np.uint64(MASK32), np.uint64(32)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The xor and multiply constants of n successive SeedSequence hashes,
    shape (2, n, 1), so each hash is one row of a stacked pool."""
    consts = []
    for _ in range(n):
        xor, init = init, init * mult & MASK32
        consts.append((xor, init))
    return np.array(consts, np.uint32).T[:, :, None]


# 4 hashes fill the pool and 3 per word mix it; 8 more draw it out
HASH_A = _hash_consts(INIT_A, MULT_A, POOL_SIZE * POOL_SIZE)
HASH_B = _hash_consts(INIT_B, MULT_B, 2 * POOL_SIZE)


def _hashmix(value, consts):
    xor, mul = consts
    value = (value ^ xor) * mul
    return value ^ value >> XSHIFT


def _words(x: int) -> list:
    """``x`` as numpy splits an entropy integer: uint32 words, low first."""
    out = [x & MASK32]
    while x > MASK32:
        x >>= 32
        out.append(x & MASK32)
    return out


def first_draws(seed: int, label: str, start: int, count: int):
    """``per_step(seed, label, t)`` for t in [start, start + count), right
    after its first ``random()``: that double, and the PCG64 ``(state,
    inc)`` the Generator then holds.

    Returns the doubles, and the pairs as rows ``(state_hi, state_lo,
    inc_hi, inc_lo)`` of a uint64 array. Equal bit for bit to numpy's own
    stream (seed and steps non-negative) while the entropy ``[seed,
    stream, t]`` fits the SeedSequence pool of 4 words.
    Entropy shorter than the pool hashes like zero words, so a t below
    2**32 is given its (zero) high word and every t runs the same vector
    arithmetic. Entropy that would not fit (``t >= 2**32`` beside a seed
    of 2**32 or more, past every run's caps) raises ValueError.
    """
    seed, stream = int(seed), STREAMS[label]
    head = _words(seed) + [stream]
    t = np.arange(start, start + count, dtype=np.uint64)
    high = (t >> np.uint64(32)).astype(np.uint32)
    entropy = [np.full(count, w, np.uint32) for w in head] + [t.astype(np.uint32), high]
    if len(head) + 1 + bool(high.any()) > POOL_SIZE:
        raise ValueError(f"seed {seed} at a t of 2**32 or more: [seed, stream, t] "
                         "outgrows the SeedSequence pool of 4 words")

    pool = _hashmix(np.stack(entropy[:POOL_SIZE]), HASH_A[:, :POOL_SIZE])
    for src in range(POOL_SIZE):  # mix_entropy: each word into the three others
        dst, j = [d for d in range(POOL_SIZE) if d != src], POOL_SIZE + 3 * src
        mixed = (np.uint32(MIX_MULT_L) * pool[dst]
                 - np.uint32(MIX_MULT_R) * _hashmix(pool[src], HASH_A[:, j:j + 3]))
        pool[dst] = mixed ^ mixed >> XSHIFT
    # generate_state(4, np.uint64): 8 uint32 words, paired low first
    drawn = _hashmix(pool[np.arange(2 * POOL_SIZE) % POOL_SIZE], HASH_B).astype(np.uint64)
    a, b, c, d = drawn[0::2] | drawn[1::2] << SHIFT32
    # inc = (c << 64 | d) << 1 | 1 and s = (inc + init) * M**2 + inc * (M + 1),
    # mod 2**128, in (hi, lo) uint64 halves; uint64 products wrap mod 2**64
    inc_hi, inc_lo = c << np.uint64(1) | d >> np.uint64(63), d << np.uint64(1) | np.uint64(1)
    s_hi, s_lo = _add128(*_mul128(*_add128(inc_hi, inc_lo, a, b), PCG_MULT_SQ),
                         *_mul128(inc_hi, inc_lo, PCG_MULT + 1))
    x, rot = s_hi ^ s_lo, s_hi >> np.uint64(58)  # XSL-RR
    x = x >> rot | x << (np.uint64(64) - rot & np.uint64(63))
    out = (x >> np.uint64(11)).astype(np.float64) * 2.0 ** -53  # random(): the top 53 bits
    return out, np.stack((s_hi, s_lo, inc_hi, inc_lo), axis=1)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(hi, lo, k: int):
    """(hi, lo) * k mod 2**128; the high half of lo * k_lo from 32-bit limbs."""
    k_hi, k_lo = np.uint64(k >> 64), np.uint64(k & MASK64)
    x0, x1, k0, k1 = lo & MASK32_U, lo >> SHIFT32, k_lo & MASK32_U, k_lo >> SHIFT32
    p00, p01, p10 = x0 * k0, x0 * k1, x1 * k0
    mid = (p00 >> SHIFT32) + (p01 & MASK32_U) + (p10 & MASK32_U)
    carry = x1 * k1 + (p01 >> SHIFT32) + (p10 >> SHIFT32) + (mid >> SHIFT32)
    return carry + lo * k_hi + hi * k_lo, lo * k_lo


class FirstDraws:
    """``per_step(seed, label, t)`` at any step t, from a table of
    ``first_draws``: its first double by indexing, and the Generator right
    after that draw by ``generator(t)``. The first table covers the run's
    expected ``horizon`` steps (at most BLOCK); a step outside the table
    refills it with the BLOCK steps from there.

    ``generator`` loads the step's PCG64 state into the one Generator this
    table owns, built once from a constant seed, so each call overwrites
    what the previous step left in it: a step's Generator is good until
    the next call.
    """

    BLOCK = 2048

    def __init__(self, seed: int, label: str, horizon: int):
        self.seed = seed
        self.label = label
        self.block = max(1, min(horizon, self.BLOCK))
        self.start = 0
        self.values = np.empty(0)
        self.lanes = np.empty((0, 4), np.uint64)
        self._generator = np.random.Generator(np.random.PCG64(0))
        self._state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
                       "has_uint32": 0, "uinteger": 0}

    def _index(self, t: int) -> int:
        i = t - self.start
        if not 0 <= i < len(self.values):
            self.values, self.lanes = first_draws(self.seed, self.label, t, self.block)
            self.start, i = t, 0
            self.block = self.BLOCK
        return i

    def __getitem__(self, t: int) -> float:
        i = self._index(t)  # before reading values: it may refill them
        return self.values[i]

    def generator(self, t: int) -> np.random.Generator:
        """``per_step(seed, label, t)`` after its first ``random()``."""
        i = self._index(t)
        s_hi, s_lo, inc_hi, inc_lo = self.lanes[i].tolist()
        pcg = self._state["state"]
        pcg["state"], pcg["inc"] = s_hi << 64 | s_lo, inc_hi << 64 | inc_lo
        self._generator.bit_generator.state = self._state
        return self._generator


RAW_BLOCK = 512  # raws a refill converts: a sweep seed's observation stream draws ~330


class ScalarStream:
    """``substream(seed, label)``'s ``random()`` and ``integers(n)``, bit for
    bit, from blocks of its PCG64's raw output, filled from the first draw:
    a double is a raw's top 53 bits; ``integers`` is numpy's 32-bit Lemire
    rule on words that are a raw's low half, then its buffered high half."""

    __slots__ = ("bit_generator", "doubles", "raws", "i", "taken", "half")

    def __init__(self, seed: int, label: str):
        self.bit_generator = substream(seed, label).bit_generator
        self.doubles, self.raws, self.i, self.taken, self.half = [], [], 0, 0, None

    def _fill(self) -> int:
        raw = self.bit_generator.random_raw(RAW_BLOCK)
        self.taken += len(self.raws)
        self.doubles, self.raws = ((raw >> np.uint64(11)) * 2.0 ** -53).tolist(), raw.tolist()
        return 0  # the index of the next raw

    def random(self) -> float:
        i = self.i
        try:
            value = self.doubles[i]
        except IndexError:
            i = self._fill()
            value = self.doubles[i]
        self.i = i + 1
        return value

    def integers(self, n: int) -> int:
        """``Generator.integers(n)`` for 1 <= n < 2**32, as a Python int."""
        if not 1 <= n <= MASK32:
            raise ValueError(f"integers needs 1 <= n < 2**32, got {n}")
        if n == 1:
            return 0
        threshold, m = (MASK32 + 1) % n, self._word() * n  # numpy's (2**32 - n) % n
        while m & MASK32 < threshold:
            m = self._word() * n
        return m >> 32

    def _word(self) -> int:  # PCG64's next_uint32, has_uint32 and all
        half = self.half
        if half is not None:
            self.half = None
            return half
        i = self.i if self.i < len(self.raws) else self._fill()
        self.i, self.half = i + 1, self.raws[i] >> 32
        return self.raws[i] & MASK32

    @property
    def consumed(self) -> tuple:
        """Where the stream stands: (raws drawn, whether a high half is buffered)."""
        return self.taken + self.i, self.half is not None
