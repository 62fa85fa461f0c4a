"""Moving-block bootstrap confidence intervals for the TLS coefficients.

Rows of the joined data ``[x, y]`` are resampled in overlapping blocks so
the within-row error coupling and the serial dependence across nearby rows
both survive resampling.  Intervals are percentile intervals from the
refitted coefficient draws.

The TLS fit needs only a resample's (p+1) x (p+1) Gram matrix, and a
moving-block resample's Gram is the sum of its blocks' Grams (Kuensch
1989).  There are only n - L + 1 blocks of L rows, so the Gram of each is
computed once, by a batched product over the windows of the data, and so
is the Gram of each truncated last block; no resample is ever gathered.
Each resample keeps its own stream of block starts.  The resamples are
handled on the calling thread in chunks of at most ``STARTS_IN_FLIGHT``
starts: the PCG64 seed words of a chunk's streams are derived at once, one
generator is set to each in turn (``seeding.streams``) to draw its raw
64-bit words, one batched bounded transform (numpy's own, Lemire 2019)
turns the whole chunk's words into starts bit-identical to
``Generator.integers``, and each resample's Gram is summed from the two
tables one block position at a time.  So memory stays at about B (p+1)^2
floats plus the tables and one chunk of starts whatever n and L are, and
all resamples are refitted together by the batched TLS kernel
``estimator.tls_from_gram``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BlockTooLong, InvalidParams, TooManyRefitFailures
from .estimator import FIT_OK, TlsFit, tls_fit, tls_from_gram
from .linalg import as_integer, as_matrix, as_vector
from .seeding import derive_subseed, pcg64_seed_words, stream, streams
from .stats import _icbrt

MAX_FAILURE_FRACTION = 0.10
# Block starts drawn at once.  While drawn each takes at most 13 bytes (half
# a raw word and a 64-bit product, then the product, its low 32 bits and a
# mask byte), and a resample's count is rounded up to even.  A resample's
# seed words take about 280 bytes more while its words are drawn, so it
# counts as at least 32 starts.  So a chunk stays under 15 MB.
STARTS_IN_FLIGHT = 1 << 20


def choose_block_length(n: int) -> int:
    """Default block length floor(n^(1/3)), clamped to [1, n/4]."""
    if n < 8:
        raise InvalidParams("need n >= 8 to choose a block length")
    return int(np.clip(_icbrt(n), 1, n // 4))


@dataclass(frozen=True)
class BootstrapConfig:
    block_length: int | str = "auto"  # "auto" resolves to floor(n^(1/3))
    n_boot: int = 999
    level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.block_length != "auto":
            length = as_integer(self.block_length, "block_length")
            if length < 1:
                raise InvalidParams("block_length must be positive")
            object.__setattr__(self, "block_length", length)
        n_boot = as_integer(self.n_boot, "n_boot")
        if n_boot < 199:
            raise InvalidParams("need at least 199 bootstrap resamples")
        object.__setattr__(self, "n_boot", n_boot)
        object.__setattr__(self, "seed", as_integer(self.seed, "seed"))
        if not 0.0 < self.level < 1.0:
            raise InvalidParams("level must lie in (0, 1)")


@dataclass(frozen=True)
class BootstrapCi:
    point_estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    block_length: int
    n_boot_effective: int
    failure_count: int

    def to_dict(self) -> dict:
        return {
            "point_estimate": self.point_estimate.tolist(),
            "lower": self.lower.tolist(),
            "upper": self.upper.tolist(),
            "level": self.level,
            "block_length": self.block_length,
            "n_boot_effective": self.n_boot_effective,
            "failure_count": self.failure_count,
        }


def _lemire_starts(words: np.ndarray, n_blocks: int, high: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_blocks, m) starts in [0, high) from the raw words of m streams, and the streams to redraw.

    ``high`` is at most 2^32.  ``Generator.integers(0, high)`` takes the
    low, then the high 32 bits of each PCG64 word as one draw u and returns
    (u * high) >> 32, unless (u * high) mod 2^32 falls below 2^32 mod high
    (Lemire 2019), where it draws again.  Here that transform runs over a
    whole chunk at once; a stream with any such draw is returned for redrawing.
    """
    k = -(-n_blocks // 2)
    raw = np.empty((k, words.shape[1]), dtype=np.uint64)
    for j, rng in enumerate(streams(stream(0), words)):
        raw[:, j] = rng.bit_generator.random_raw(k)
    # Masks and shifts, not a uint32 view, so the split ignores byte order.
    draws = np.empty((2 * k, words.shape[1]), dtype=np.uint64)
    np.bitwise_and(raw, 0xFFFFFFFF, out=draws[0::2])
    np.right_shift(raw, 32, out=draws[1::2])
    del raw
    draws = draws[:n_blocks]
    draws *= np.uint64(high)
    redraw = (draws.astype(np.uint32) < (1 << 32) % high).any(axis=0)
    draws >>= np.uint64(32)
    return draws.view(np.int64), np.flatnonzero(redraw)


def _block_starts(n: int, length: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """(hi - lo, ceil(n / length)) block starts of resamples ``lo .. hi-1``.

    Resample r's starts are ``stream(derive_subseed(seed, r, 0)).integers(0,
    n - length + 1, size=ceil(n / length))`` bit for bit.  They come from
    its stream's raw words through ``_lemire_starts``; the rare resamples
    that transform rejects, and every resample of a range over 2^32
    (numpy's 64-bit path), are drawn by that ``integers`` call itself.
    """
    n_blocks = -(-n // length)
    high = n - length + 1
    words = pcg64_seed_words(derive_subseed(seed, np.arange(lo, hi, dtype=np.uint64), 0))
    # Stored block position by block position, so each position's starts
    # over all resamples are contiguous for the sums in _resample_grams.
    if high <= 1 << 32:
        starts, redraw = _lemire_starts(words, n_blocks, high)
    else:
        starts, redraw = np.empty((n_blocks, hi - lo), dtype=np.int64), np.arange(hi - lo)
    for column, rng in zip(redraw, streams(stream(0), words[:, redraw])):
        starts[:, column] = rng.integers(0, high, size=n_blocks)
    return starts.T


def _block_grams(rows: np.ndarray, length: int, count: int) -> np.ndarray:
    """(count, p+1, p+1) Grams of the blocks ``rows[s : s + length]``, s = 0 .. count-1.

    Each Gram is summed directly over its window; differences of a running
    sum would cancel on data with a large mean.  The windows are strided and
    short, where ``@`` beats ``estimator.gram_stack``'s ``einsum`` (3 times
    at n = 1000, L = 10; 4 times at n = 16 000, L = 25).
    """
    windows = sliding_window_view(rows[: count - 1 + length], length, axis=0)
    return windows @ windows.mT


def _block_tables(rows: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Grams of every block of ``length`` rows, and of every truncated last block.

    A resample joins blocks at its starts and drops what runs past n rows,
    so its last block keeps n - (ceil(n / length) - 1) length rows.
    """
    n = rows.shape[0]
    full = _block_grams(rows, length, n - length + 1)
    tail = n - (-(-n // length) - 1) * length
    return full, full if tail == length else _block_grams(rows, tail, n - length + 1)


def _resample_grams(full: np.ndarray, last: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """(B, p+1, p+1) Grams of the resamples whose blocks start at the rows of ``starts``."""
    grams = last[starts[:, -1]]
    block = np.empty_like(grams)
    for position in starts.T[:-1]:
        np.take(full, position, axis=0, out=block)
        grams += block
    return grams


def block_bootstrap_ci(x, y, cfg: BootstrapConfig) -> BootstrapCi:
    """Percentile CI from TLS refits on moving-block resamples of [x, y].

    Resamples that fail to refit (degenerate eigenvector or ill-conditioned
    shifted Gram matrix) are dropped; more than 10% of them failing aborts
    the interval.
    """
    x = as_matrix(x)
    y = as_vector(y)
    n = x.shape[0]
    fit: TlsFit = tls_fit(x, y)
    length = choose_block_length(n) if cfg.block_length == "auto" else cfg.block_length
    if length > n:
        raise BlockTooLong(f"block length {length} exceeds n = {n}")

    full, last = _block_tables(np.column_stack([x, y]), length)
    n_blocks = -(-n // length)
    per_chunk = max(1, STARTS_IN_FLIGHT // max(n_blocks + n_blocks % 2, 32))
    grams = []
    for lo in range(0, cfg.n_boot, per_chunk):
        starts = _block_starts(n, length, cfg.seed, lo, min(lo + per_chunk, cfg.n_boot))
        grams.append(_resample_grams(full, last, starts))
    refits = tls_from_gram(np.concatenate(grams))
    ok = refits.status == FIT_OK
    failures = int(np.count_nonzero(~ok))
    if failures > MAX_FAILURE_FRACTION * cfg.n_boot:
        raise TooManyRefitFailures(
            f"{failures} of {cfg.n_boot} resamples failed to refit"
        )
    draws = refits.beta[ok]
    alpha = 1.0 - cfg.level
    # numpy's default interpolation is the type-7 quantile rule.
    lower = np.quantile(draws, alpha / 2.0, axis=0)
    upper = np.quantile(draws, 1.0 - alpha / 2.0, axis=0)
    return BootstrapCi(
        point_estimate=fit.beta_hat,
        lower=lower,
        upper=upper,
        level=cfg.level,
        block_length=length,
        n_boot_effective=len(draws),
        failure_count=failures,
    )
