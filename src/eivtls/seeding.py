"""Deterministic seed derivation for per-replication sub-streams.

Sub-seeds are derived with SplitMix64 (a bijective 64-bit finalizer), so
distinct (replication, cell) pairs can never collide for a fixed master seed.
Streams themselves use numpy's PCG64; the generator algorithm is pinned here
so results are reproducible across platforms.

The derivations take a Python int or a uint64 array and return the same
form (the same expressions wrap modulo 2^64 on either), so a whole grid cell
derives its seeds in a few numpy calls.  ``stream(seed)`` is the reference
stream, and a draw from one seed (one error matrix) builds it directly.
Building one ``PCG64`` per seed runs numpy's ``SeedSequence`` and PCG64's
seeding step each time, so the draws from many seeds
(``processes.map_draws``, the bootstrap's block starts) do not:
``pcg64_states`` runs both over a seed array at once in numpy, and
``streams`` sets one reused ``Generator`` to each seed's starting state in
turn, so a chunk of rows is drawn without constructing a generator per row
and the per-row Python work is joining two 64-bit halves per 128-bit int
and assigning the state.  The bytes drawn are those of ``stream(seed)``.
How the bootstrap turns a stream's raw words into block starts is stated
in ``bootstrap``.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
# Odd mixing constant for the cell; GOLDEN mixes in the replication.
K2 = 0xC2B2AE3D27D4EB4F

# numpy's SeedSequence hash constants (pool size 4, 32-bit words).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_M32 = 0xFFFFFFFF
_POOL_SIZE = 4

# PCG64's 128-bit LCG multiplier, as 64-bit halves.
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)


def splitmix64(x):
    """One SplitMix64 finalizer step (bijective on 64-bit integers).

    ``x`` is an int or a uint64 array (elementwise, wrapping modulo 2^64);
    the result has the same form.
    """
    x = (x + GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def column_subseed(seed, column):
    """Sub-seed for error-matrix column ``column`` (1-based).

    ``seed`` and ``column`` are ints or uint64 arrays (broadcast together).
    """
    return splitmix64((seed ^ ((column * GOLDEN) & _MASK)) & _MASK)


def derive_subseed(master: int, replication, cell: int):
    """Collision-free sub-seed for one replication of one experiment cell.

    ``replication`` is an int or a uint64 array of them; the result has the
    same form.
    """
    x = master & _MASK
    x ^= (replication * GOLDEN) & _MASK
    x ^= (cell * K2) & _MASK
    return splitmix64(x)


def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiply constants of ``calls`` successive SeedSequence hash steps, as columns."""
    h = [init]
    for _ in range(calls):
        h.append((h[-1] * mult) & _M32)
    h = np.array(h, dtype=np.uint32)[:, None]
    return h[:-1], h[1:]


# The pool takes one hash step per word, then three per word as it mixes
# into the other three; generating the state takes one per output word.
_XOR_A, _MUL_A = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)
_XOR_B, _MUL_B = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> np.uint32(16))


def pcg64_seed_words(seeds) -> np.ndarray:
    """(4, *shape) uint64 words that seed ``np.random.PCG64(seed)`` for a uint64 seed array.

    ``[:, r]`` equals ``np.random.SeedSequence(seeds[r]).generate_state(4, np.uint64)``:
    the seed's two 32-bit words, zero-padded to the pool of four, are
    hashed in, each pool word is mixed into the other three, and the pool
    is hashed out to eight 32-bit words.  The hash constants run in a fixed
    sequence, so each step is a few uint32 operations over all seeds.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    flat = s.reshape(-1)
    pool = np.zeros((_POOL_SIZE, flat.size), dtype=np.uint32)
    pool[0] = flat & np.uint64(_M32)
    pool[1] = flat >> np.uint64(32)
    pool = _hash(pool, _XOR_A[:_POOL_SIZE], _MUL_A[:_POOL_SIZE])
    step = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hash(pool[src], _XOR_A[step : step + 3], _MUL_A[step : step + 3])
        step += 3
        mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hash(pool[list(range(_POOL_SIZE)) * 2], _XOR_B, _MUL_B).astype(np.uint64)
    # Little-endian pairs of 32-bit words form each 64-bit word.
    words = state[0::2] | (state[1::2] << np.uint64(32))
    return words.reshape((4, *s.shape))


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``, from 32-bit limb products."""
    m32, w = np.uint64(_M32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> w, b & m32, b >> w
    low, cross_a, cross_b = a0 * b0, a1 * b0, a0 * b1
    # At most 3 (2^32 - 1), so this sum cannot wrap.
    mid = (low >> w) + (cross_a & m32) + (cross_b & m32)
    return a1 * b1 + (cross_a >> w) + (cross_b >> w) + (mid >> w)


def pcg64_states(seeds) -> np.ndarray:
    """(4, *shape) uint64 words of the state ``np.random.PCG64(seed)`` starts in, per uint64 seed.

    The rows are state_hi, state_lo, inc_hi, inc_lo.  PCG64 seeds itself
    (``pcg64_srandom_r``) from the ``pcg64_seed_words`` (initstate_hi,
    initstate_lo, initseq_hi, initseq_lo): inc = 2 initseq + 1, then state =
    (inc + initstate) * M + inc modulo 2^128.  Here that runs on 64-bit
    halves over all seeds at once: a sum's carry out of its low half is
    whether that half wrapped below an addend, and the product's high half
    gathers the high word of lo * M_lo and the two cross products.
    """
    seed_words = pcg64_seed_words(seeds)
    init_hi, init_lo, seq_hi, seq_lo = seed_words.reshape(4, -1)
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    sum_lo = inc_lo + init_lo
    sum_hi = inc_hi + init_hi + (sum_lo < inc_lo)
    product_hi = _mulhi(sum_lo, _PCG_MULT_LO) + sum_lo * _PCG_MULT_HI + sum_hi * _PCG_MULT_LO
    state_lo = sum_lo * _PCG_MULT_LO + inc_lo
    state_hi = product_hi + inc_hi + (state_lo < inc_lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo]).reshape(seed_words.shape)


def stream(seed: int) -> np.random.Generator:
    """The package-wide RNG stream: PCG64 keyed by a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK))


def streams(rng: np.random.Generator, states: np.ndarray) -> Iterator[np.random.Generator]:
    """Yield ``rng`` once per column of ``states``, set to the start of that seed's stream.

    ``states`` is a (4, k) slice of ``pcg64_states``; after the r-th yield,
    ``rng`` draws exactly what ``stream(seed_r)`` would.  Per column this
    only joins the two halves of the state and of the increment into one
    reused state dict and assigns it.  ``rng`` must be a PCG64 ``Generator``.
    """
    bit_generator = rng.bit_generator
    words = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
    for state_hi, state_lo, inc_hi, inc_lo in states.T.tolist():
        words["state"] = (state_hi << 64) | state_lo
        words["inc"] = (inc_hi << 64) | inc_lo
        bit_generator.state = state
        yield rng
