"""Named random sub-streams derived from a single run seed.

Each stream is an independent numpy Generator keyed by (seed, label), so
adding draws to one stream never perturbs another. Per-step streams are
additionally keyed by the step index, which keeps scheduler decisions
aligned across runs that differ only in how often they fire.

A per-step stream is also available without ``default_rng``:
``first_draws`` computes, for a block of steps at once and by numpy's own
seeding arithmetic (SeedSequence pool mixing, then PCG64 seeding), each
step's PCG64 state right after its first draw, and that draw (one XSL-RR
output). ``FirstDraws`` serves the first draw step by step, and loads a
step's state into one reused Generator when the step needs the rest of
its stream.
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

    Returns the doubles as an array and the pairs as a list. Equal bit for
    bit to numpy's own stream (seed and steps non-negative) while the
    entropy ``[seed, stream, t]`` fits the SeedSequence pool of 4 words.
    Entropy shorter than the pool hashes like zero words, so a t below
    2**32 is given its (zero) high word and every t runs the same vector
    arithmetic. A t whose entropy would not fit (``t >= 2**32`` beside a
    seed of 2**32 or more) is drawn by ``default_rng`` itself, and its
    pair is None.
    """
    seed, stream = int(seed), STREAMS[label]
    head = _words(seed) + [stream]
    t = np.arange(start, start + count, dtype=np.uint64)
    high = (t >> np.uint64(32)).astype(np.uint32)
    entropy = [np.full(count, w, np.uint32) for w in head] + [t.astype(np.uint32), high]
    wide = np.flatnonzero(len(head) + 1 + (high > 0) > POOL_SIZE)

    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> XSHIFT)

    def mix(x, y):
        result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return result ^ (result >> XSHIFT)

    pool = [hashmix(w) for w in entropy[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = INIT_B
    state = []  # generate_state(4, np.uint64): 8 uint32 words, paired low first
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_B & MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> XSHIFT)).astype(np.uint64))
    w0, w1, w2, w3 = (
        (state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist() for k in range(4))

    out = np.empty(count)
    pairs = []
    for i, (a, b, c, d) in enumerate(zip(w0, w1, w2, w3)):
        # the shifted word can reach 129 bits; PCG64 keeps 128 of them
        inc = ((c << 64 | d) << 1 | 1) & MASK128
        s = ((inc + (a << 64 | b)) * PCG_MULT_SQ + inc * (PCG_MULT + 1)) & MASK128
        hi = s >> 64
        x = (hi ^ s) & MASK64
        rot = hi >> 58
        x = (x >> rot | x << (64 - rot)) & MASK64
        out[i] = (x >> 11) * 2.0 ** -53  # random(): the top 53 bits
        pairs.append((s, inc))
    for i in wide.tolist():
        out[i] = per_step(seed, label, start + i).random()
        pairs[i] = None
    return out, pairs


class FirstDraws:
    """``per_step(seed, label, t)`` at any step t, from a table of
    ``first_draws``: its first double by indexing, and the Generator right
    after that draw by ``generator(t)``. The first table covers the run's
    expected ``horizon`` steps (at most BLOCK); a step outside the table
    refills it with the BLOCK steps from there.

    ``generator`` loads the step's PCG64 state into the one Generator this
    table owns, built once from a constant seed, so each call overwrites
    what the previous step left in it: a step's Generator is good until
    the next call. A step whose entropy does not fit the pool gets a
    Generator of its own from ``per_step``.
    """

    BLOCK = 2048

    def __init__(self, seed: int, label: str, horizon: int):
        self.seed = seed
        self.label = label
        self.block = max(1, min(horizon, self.BLOCK))
        self.start = 0
        self.values = np.empty(0)
        self.pairs = []
        self._generator = np.random.Generator(np.random.PCG64(0))
        self._state = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
                       "has_uint32": 0, "uinteger": 0}

    def _index(self, t: int) -> int:
        i = t - self.start
        if not 0 <= i < len(self.values):
            self.start, i = t, 0
            self.values, self.pairs = first_draws(self.seed, self.label, t, self.block)
            self.block = self.BLOCK
        return i

    def __getitem__(self, t: int) -> float:
        i = self._index(t)  # before reading values: it may refill them
        return self.values[i]

    def generator(self, t: int) -> np.random.Generator:
        """``per_step(seed, label, t)`` after its first ``random()``."""
        i = self._index(t)
        pair = self.pairs[i]
        if pair is None:
            rng = per_step(self.seed, self.label, t)
            rng.random()
            return rng
        pcg = self._state["state"]
        pcg["state"], pcg["inc"] = pair
        self._generator.bit_generator.state = self._state
        return self._generator
