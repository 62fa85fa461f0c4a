"""Moving-block bootstrap confidence intervals for the TLS coefficients.

Rows of the joined data ``[x, y]`` are resampled in overlapping blocks so
the within-row error coupling and the serial dependence across nearby rows
both survive resampling.  Intervals are percentile intervals from the
refitted coefficient draws.  Each resample keeps its own index stream: the
PCG64 seed words of all B streams are derived at once and one generator is
set to each in turn (``seeding.streams``).  The resamples are gathered in
chunks on the calling thread, reduced to their Gram matrices and refitted
together by the batched TLS kernel ``estimator.tls_from_gram``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BlockTooLong, InvalidParams, TooManyRefitFailures
from .estimator import FIT_OK, TlsFit, gram_stack, tls_fit, tls_from_gram
from .linalg import as_matrix, as_vector
from .seeding import derive_subseed, pcg64_seed_words, stream, streams
from .stats import _icbrt

MAX_FAILURE_FRACTION = 0.10


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
            if int(self.block_length) < 1:
                raise InvalidParams("block_length must be positive")
            object.__setattr__(self, "block_length", int(self.block_length))
        if self.n_boot < 199:
            raise InvalidParams("need at least 199 bootstrap resamples")
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


def _resample_indices(n: int, length: int, rng: np.random.Generator) -> np.ndarray:
    n_blocks = -(-n // length)
    starts = rng.integers(0, n - length + 1, size=n_blocks)
    idx = (starts[:, None] + np.arange(length)[None, :]).ravel()
    return idx[:n]


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

    rows = np.column_stack([x, y])
    words = pcg64_seed_words(derive_subseed(cfg.seed, np.arange(cfg.n_boot, dtype=np.uint64), 0))

    def resampler(_rows):
        rng = stream(0)

        def resamples(lo, hi):
            idx = np.stack([_resample_indices(n, length, r) for r in streams(rng, words[:, lo:hi])])
            return rows[idx].mT  # (hi - lo, p+1, n)

        return resamples

    refits = tls_from_gram(gram_stack(cfg.n_boot, rows.size, resampler))
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
