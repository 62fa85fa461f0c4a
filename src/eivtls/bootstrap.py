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
Each resample keeps its own stream of block starts, seeded by
``derive_subseed(seed, r, 0)``.  The resamples are handled on the calling
thread in chunks of at most ``STARTS_IN_FLIGHT`` starts, and one call,
``seeding.bounded_integers`` on the chunk's seeds, draws a chunk's starts
(that docstring states how).  Each resample's Gram is summed from the two
tables one block position at a time, and the chunk's Grams are refitted at
once by the batched TLS kernel ``estimator.tls_from_gram``, whose rows do
not depend on one another.  Only the estimates and fit statuses outlive the
chunk, in a (B, p) array and a B-vector allocated before the first start is
drawn so that a count the host cannot hold is refused before any work.  So
memory stays at about 8p + 1 bytes a resample plus the tables and one
chunk's starts, Grams and refit whatever n and L are.  No thread is
started: what is left per resample is ``bounded_integers``' work on its
stream, under the interpreter lock, and that loop ran slower on two threads
than on one (two runs of 20 000 streams of 50 words: 138-153 ms on one
thread, 171-202 ms on two, 2 vCPUs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParams, NumericalError
from .estimator import FIT_OK, TlsFit, tls_fit, tls_from_gram
from .linalg import as_integer, as_matrix, as_number, as_vector, icbrt, to_keys
from .seeding import bounded_integers, derive_subseed

MAX_FAILURE_FRACTION = 0.10
# Block starts drawn at once.  ``bounded_integers`` states the bytes its
# draws take: at most 13 a start, a resample's count rounded up to even, and
# at most 144 a resample, so a resample counts as at least 32 starts.  So a
# chunk's starts stay under 15 MB.  Its Grams and their refit then take under
# 55 (p+1)^2 bytes a resample (the Grams and the multiple of them
# ``tls_from_gram`` states), and a chunk holds at most 2^15 resamples: under
# 17 MB at p = 2.
STARTS_IN_FLIGHT = 1 << 20


def choose_block_length(n: int) -> int:
    """Default block length floor(n^(1/3)); n is at least 8, so it lies in [2, n // 4]."""
    return icbrt(as_integer(n, "rows for an automatic block length", 8))


@dataclass(frozen=True)
class BootstrapConfig:
    block_length: int | str = "auto"  # "auto" resolves to floor(n^(1/3))
    n_boot: int = 999
    level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.block_length != "auto":
            object.__setattr__(self, "block_length", as_integer(self.block_length, "block_length", 1))
        object.__setattr__(self, "n_boot", as_integer(self.n_boot, "n_boot", 199))
        object.__setattr__(self, "seed", as_integer(self.seed, "seed"))
        object.__setattr__(self, "level", as_number(self.level, "level"))
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
        return to_keys(self)


def _block_grams(rows: np.ndarray, length: int, count: int) -> np.ndarray:
    """(count, p+1, p+1) Grams of the blocks ``rows[s : s + length]``, s = 0 .. count-1.

    Each Gram is summed directly over its window; differences of a running
    sum would cancel on data with a large mean.  The windows are strided and
    short, and ``@`` sums them faster than ``estimator.gram_stack``: best of
    5 ``timeit`` runs, 0.16-0.20 against 0.27-0.33 ms at n = 1000, L = 10,
    p = 1, and 6.5-8.2 against 8.4-9.1 ms at n = 16 000, L = 25, p = 2
    (2 vCPUs).  ``gram_stack`` would also first copy the overlapping
    windows into a C-ordered stack of count (p+1) L floats: at n = 20 000,
    L = 500 and p = 1 that copy peaked at 156.6 MB (``tracemalloc``), where
    ``@`` on the strided windows peaked at 0.6 MB, the size of the table.
    The two also differ in the last bits of about half the entries, and so
    in the interval's.
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
    """(B, p+1, p+1) Grams of the resamples whose blocks start at the columns of ``starts``."""
    grams = last[starts[-1]]
    block = np.empty_like(grams)
    # A sum that overflows is left inf or NaN, as in ``gram_stack``:
    # ``tls_from_gram`` refuses it as ``FIT_NOT_FINITE``.
    with np.errstate(over="ignore", invalid="ignore"):
        for position in starts[:-1]:
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
        raise InvalidParams(f"block length {length} exceeds n = {n}")

    p = x.shape[1]
    as_integer(cfg.n_boot * p, "n_boot * p resample estimates", 1)
    beta = np.empty((cfg.n_boot, p))
    status = np.empty(cfg.n_boot, dtype=np.int8)
    full, last = _block_tables(np.column_stack([x, y]), length)
    n_blocks = -(-n // length)
    per_chunk = max(1, STARTS_IN_FLIGHT // max(n_blocks + n_blocks % 2, 32))
    for lo in range(0, cfg.n_boot, per_chunk):
        hi = min(lo + per_chunk, cfg.n_boot)
        seeds = derive_subseed(cfg.seed, np.arange(lo, hi, dtype=np.uint64), 0)
        refits = tls_from_gram(_resample_grams(full, last, bounded_integers(seeds, n - length + 1, n_blocks)))
        beta[lo:hi], status[lo:hi] = refits.beta, refits.status
    ok = status == FIT_OK
    failures = int(np.count_nonzero(~ok))
    if failures > MAX_FAILURE_FRACTION * cfg.n_boot:
        raise NumericalError(f"{failures} of {cfg.n_boot} resamples failed to refit")
    draws = beta[ok]
    alpha = 1.0 - cfg.level
    # numpy's default interpolation is the type-7 quantile rule.
    lower, upper = np.quantile(draws, [alpha / 2.0, 1.0 - alpha / 2.0], axis=0)
    return BootstrapCi(
        point_estimate=fit.beta_hat,
        lower=lower,
        upper=upper,
        level=cfg.level,
        block_length=length,
        n_boot_effective=len(draws),
        failure_count=failures,
    )
