"""Deterministic seed derivation for per-replication sub-streams.

Sub-seeds are derived with SplitMix64 (a bijective 64-bit finalizer), so
distinct (replication, cell) pairs can never collide for a fixed master seed.
Streams themselves use numpy's PCG64; the generator algorithm is pinned here
so results are reproducible across platforms.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
# Odd mixing constants for (replication, cell) separation.
K1 = 0x9E3779B97F4A7C15
K2 = 0xC2B2AE3D27D4EB4F


def splitmix64(x: int) -> int:
    """One SplitMix64 finalizer step (bijective on 64-bit integers)."""
    x = (x + GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def column_subseed(seed: int, column: int) -> int:
    """Sub-seed for error-matrix column ``column`` (1-based)."""
    return splitmix64((seed ^ ((column * GOLDEN) & _MASK)) & _MASK)


def derive_subseed(master: int, replication: int, cell: int) -> int:
    """Collision-free sub-seed for one replication of one experiment cell."""
    x = master & _MASK
    x ^= (replication * K1) & _MASK
    x ^= (cell * K2) & _MASK
    return splitmix64(x)


def stream(seed: int) -> np.random.Generator:
    """The package-wide RNG stream: PCG64 keyed by a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed & _MASK))
