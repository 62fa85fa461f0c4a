"""Deterministic seed derivation for per-replication sub-streams.

Sub-seeds are derived with SplitMix64 (a bijective 64-bit finalizer), so
distinct (replication, cell) pairs can never collide for a fixed master seed.
Streams themselves use numpy's PCG64; the generator algorithm is pinned here
so results are reproducible across platforms.

The derivations take a Python int or a uint64 array and return the same
form (the same expressions wrap modulo 2^64 on either), so a whole grid cell
derives its seeds in a few numpy calls.  The stream of a seed draws what
numpy's ``Generator(PCG64(seed))`` draws.  Building one ``PCG64`` from a
seed builds a numpy ``SeedSequence`` each time, so the package's seeded
draws do not: ``pcg64_seed_words`` runs the ``SeedSequence`` hash over a
seed array at once in numpy, and ``_bit_generators`` hands each seed's
four words to numpy's ``PCG64`` through its ``ISeedSequence`` interface.
numpy's own C seeding step then starts each stream, and per seed only the
bit generator (and, in ``streams``, its ``Generator``) is built.
``processes`` states how the error draws use ``streams``, and
``bounded_integers`` draws the bootstrap's block starts.
"""

from __future__ import annotations

import functools
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


@functools.cache
def _seed_words_type() -> type:
    """An ``ISeedSequence`` that hands ``np.random.PCG64`` one seed's precomputed words.

    Made on first use, so that ``import eivtls`` does not load ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for 4 uint64 words and reads them from the array's buffer.
            return self.words

    return SeedWords


def _bit_generators(words: np.ndarray) -> Iterator[np.random.BitGenerator]:
    """Yield, per column of ``words``, a bit generator in the state ``PCG64(seed)`` starts in.

    ``words`` is a (4, k) slice of ``pcg64_seed_words``.  Each column, copied
    into one contiguous row, seeds numpy's ``PCG64`` through the
    ``ISeedSequence`` interface, so numpy's own C seeding step runs per row
    and no ``SeedSequence`` is built.
    """
    seed_words = _seed_words_type()
    for row in np.ascontiguousarray(words.T):
        yield np.random.PCG64(seed_words(row))


def streams(words: np.ndarray) -> Iterator[np.random.Generator]:
    """Yield, per column of ``words``, a ``Generator`` in the state of ``Generator(PCG64(seed))``.

    ``words`` is a (4, k) slice of ``pcg64_seed_words``, as for ``_bit_generators``.
    """
    for bit_generator in _bit_generators(words):
        yield np.random.Generator(bit_generator)


def bounded_integers(seeds: np.ndarray, high: int, size: int) -> np.ndarray:
    """(size, k) int64 draws: column r is ``Generator(PCG64(seeds[r])).integers(0, high, size)``.

    ``seeds`` is a uint64 vector of k seeds.  For ``high`` at most 2^32 that
    call takes the low, then the high 32 bits of each PCG64 word as one draw
    u and returns (u * high) >> 32, unless (u * high) mod 2^32 falls below
    2^32 mod high (Lemire 2019), where it draws again.  Here that transform
    runs over all the streams' raw words at once; the rare streams with a
    rejected draw, and every stream of a range over 2^32 (numpy's 64-bit
    path), are drawn by ``integers`` itself.  While drawn, a draw takes at
    most 13 bytes (half a raw word and a 64-bit product, then the product,
    its low 32 bits and a mask byte), a stream's count rounded up to even,
    and a stream at most 144 bytes more (its seed and its seed words).
    Each stream keeps its own numpy bit generator: a PCG64 batched over the
    streams in numpy ufuncs was bit-equal, but at about 31 ns a word against
    4 it took 14-22 against 7.3 ms for 999 streams of 320 words (2 vCPUs).
    """
    words = pcg64_seed_words(seeds)
    m = words.shape[1]
    if high <= 1 << 32:
        k = -(-size // 2)
        raw = np.empty((k, m), dtype=np.uint64)
        for j, bit_generator in enumerate(_bit_generators(words)):
            raw[:, j] = bit_generator.random_raw(k)
        # Masks and shifts, not a uint32 view, so the split ignores byte order.
        draws = np.empty((2 * k, m), dtype=np.uint64)
        np.bitwise_and(raw, 0xFFFFFFFF, out=draws[0::2])
        np.right_shift(raw, 32, out=draws[1::2])
        del raw
        draws = draws[:size]
        draws *= np.uint64(high)
        redraw = np.flatnonzero((draws.astype(np.uint32) < (1 << 32) % high).any(axis=0))
        draws >>= np.uint64(32)
        out = draws.view(np.int64)
    else:
        out, redraw = np.empty((size, m), dtype=np.int64), np.arange(m)
    for column, rng in zip(redraw, streams(words[:, redraw])):
        out[:, column] = rng.integers(0, high, size=size)
    return out
