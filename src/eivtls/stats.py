"""Distributional checks: multivariate normality, KS distances, CLT
experiments on normalized sums, and Bartlett-kernel long-run covariance.

``ks_statistic`` takes a vectorised cdf, one that maps the sorted sample
to an array of its shape (``special.ndtr`` in every caller).

P-values and the normal CDF come straight from ``scipy.special``: the
chi-square upper tail is ``chdtrc``, the standard normal CDF is ``ndtr``
(two-sided normal p-values are ``2 ndtr(-|z|)``), and the Kolmogorov limit
is ``kolmogorov``.  ``scipy.special`` is imported inside the functions that
evaluate them, so importing this module loads no scipy.  ``clt_check``
draws its replications through ``processes.map_draws`` and reduces each
chunk to its row sums, drawn at unit sd.  The long-run covariance is projected onto the PSD
cone through ``np.linalg.eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateVariance,
    EmptySample,
    InsufficientData,
    InvalidParams,
    SingularCovariance,
    TooFewSamples,
)
from .linalg import as_integer, as_matrix
from .processes import ErrorProcessSpec, map_draws
from .seeding import derive_subseed

MIN_SAMPLES_PER_DIM = 20  # Mardia's tests need at least this many samples per dimension


@dataclass(frozen=True)
class MardiaResult:
    skewness_stat: float
    skewness_pvalue: float
    kurtosis_stat: float
    kurtosis_pvalue: float


def mardia_tests(samples) -> MardiaResult:
    """Mardia's multivariate skewness and kurtosis tests.

    Skewness: R * b1 / 6 against chi-square with d(d+1)(d+2)/6 degrees of
    freedom.  Kurtosis: (b2 - d(d+2)) / sqrt(8 d (d+2) / R) against the
    standard normal, two-sided.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    r, d = x.shape
    if r < MIN_SAMPLES_PER_DIM * d:
        raise TooFewSamples(f"need at least 20*d = {MIN_SAMPLES_PER_DIM * d} samples, have {r}")
    xc = x - x.mean(axis=0)
    try:
        whiten = np.linalg.cholesky(np.linalg.inv(xc.T @ xc / r))
    except np.linalg.LinAlgError:
        raise SingularCovariance("sample covariance is singular") from None
    u = xc @ whiten  # u_i . u_j = xc_i' S^-1 xc_j
    if not np.all(np.isfinite(u)):
        raise SingularCovariance("sample covariance is numerically singular")

    # sum_ij (u_i . u_j)^3 is the squared Frobenius norm of the third-moment
    # tensor sum_i u_i (x) u_i (x) u_i, which needs no R x R matrix.
    b1 = float(np.sum(np.einsum("ri,rj,rk->ijk", u, u, u) ** 2)) / (r * r)
    b2 = float(np.mean(np.sum(u * u, axis=1) ** 2))

    from scipy import special

    skew_stat = r * b1 / 6.0
    skew_df = d * (d + 1) * (d + 2) / 6.0
    skew_p = float(special.chdtrc(skew_df, skew_stat))  # chi-square upper tail
    kurt_stat = (b2 - d * (d + 2)) / np.sqrt(8.0 * d * (d + 2) / r)
    kurt_p = float(2.0 * special.ndtr(-abs(kurt_stat)))
    return MardiaResult(skew_stat, skew_p, float(kurt_stat), kurt_p)


def ks_statistic(sample, cdf) -> tuple[float, float]:
    """One-sample KS distance and its asymptotic p-value.

    ``cdf`` maps an array to an array of the same shape; any other output
    is InvalidParams.  The p-value uses the Kolmogorov limiting series; it is an asymptotic
    approximation, reasonable for n >= 35.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.shape[0]
    if n == 0:
        raise EmptySample("sample is empty")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise InvalidParams(f"cdf must map the sample to shape {x.shape}, got shape {f.shape}")
    if np.any(np.diff(f) < -1e-12):
        raise InvalidParams("cdf must be non-decreasing")
    from scipy import special

    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    p = float(special.kolmogorov(np.sqrt(n) * d))
    return d, p


@dataclass(frozen=True)
class CltCheckReport:
    """Normalized partial sums across replications, tested against N(0, 1)."""

    n: int
    replications: int
    s_over_sigma: np.ndarray
    ks_vs_standard_normal: tuple[float, float]
    varsigma2_estimate: float

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "replications": self.replications,
            "ks_d": self.ks_vs_standard_normal[0],
            "ks_pvalue": self.ks_vs_standard_normal[1],
            "varsigma2_estimate": self.varsigma2_estimate,
        }


def clt_check(
    spec: ErrorProcessSpec, n: int, replications: int, seed: int
) -> CltCheckReport:
    """Check that normalized partial sums of the process look standard normal.

    The sum's standard deviation is estimated across replications (matching
    its definition as a variance of the partial sum), not by a within-series
    kernel estimate.  Replication r is ``generate_sequence(spec, n,
    derive_subseed(seed, r, 0))``; ``processes.map_draws`` draws them a
    chunk at a time, on a thread pool of at most one thread per usable CPU,
    and each chunk is reduced to its row sums, so the sums do not depend on
    the chunking or the CPU count.
    """
    if replications < 500:
        raise InvalidParams("need at least 500 replications")
    if n < 500:
        raise InvalidParams("need n >= 500")
    seeds = derive_subseed(seed, np.arange(replications, dtype=np.uint64), 0)
    chunks = map_draws([(spec, 1.0)], seeds[None], n, lambda b: b[:, 0].sum(axis=1))
    sums = np.concatenate(chunks)
    var = float(np.var(sums, ddof=1))
    if not var > 0:
        raise DegenerateVariance("partial-sum variance estimate is not positive")
    from scipy import special

    normalized = sums / np.sqrt(var)
    ks = ks_statistic(normalized, special.ndtr)
    return CltCheckReport(
        n=n,
        replications=replications,
        s_over_sigma=normalized,
        ks_vs_standard_normal=ks,
        varsigma2_estimate=var / n,
    )


@dataclass(frozen=True)
class NormalityReport:
    """Normality battery for a sample of vectors.

    Projection KS tests compare each directional projection of the centered
    sample with the normal whose variance is taken from the empirical
    covariance (the battery does not compute the limiting covariance, so it
    studentizes empirically).
    """

    n_samples: int
    dim: int
    mardia_skewness_stat: float
    mardia_skewness_pvalue: float
    mardia_kurtosis_stat: float
    mardia_kurtosis_pvalue: float
    ks_projection_stats: tuple[tuple[str, float, float], ...]
    sample_mean: np.ndarray
    sample_cov: np.ndarray

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "dim": self.dim,
            "mardia_skewness_stat": self.mardia_skewness_stat,
            "mardia_skewness_pvalue": self.mardia_skewness_pvalue,
            "mardia_kurtosis_stat": self.mardia_kurtosis_stat,
            "mardia_kurtosis_pvalue": self.mardia_kurtosis_pvalue,
            "ks_projections": [
                {"direction": lbl, "d": d, "pvalue": p}
                for lbl, d, p in self.ks_projection_stats
            ],
            "sample_mean": self.sample_mean.tolist(),
            "sample_cov": self.sample_cov.tolist(),
        }


def normality_battery(samples) -> NormalityReport:
    """Mardia tests plus per-direction KS on coordinate axes and the diagonal."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    r, d = x.shape
    mardia = mardia_tests(x)
    mean = x.mean(axis=0)
    xc = x - mean
    cov = xc.T @ xc / (r - 1)
    directions = [(f"axis-{j + 1}", np.eye(d)[j]) for j in range(d)]
    if d > 1:
        directions.append(("ones", np.ones(d) / np.sqrt(d)))
    from scipy import special

    projections = []
    for label, u in directions:
        sd = float(np.sqrt(u @ cov @ u))
        ks_d, ks_p = ks_statistic(xc @ u / sd, special.ndtr)
        projections.append((label, ks_d, ks_p))
    return NormalityReport(
        n_samples=r,
        dim=d,
        mardia_skewness_stat=mardia.skewness_stat,
        mardia_skewness_pvalue=mardia.skewness_pvalue,
        mardia_kurtosis_stat=mardia.kurtosis_stat,
        mardia_kurtosis_pvalue=mardia.kurtosis_pvalue,
        ks_projection_stats=tuple(projections),
        sample_mean=mean,
        sample_cov=cov,
    )


@dataclass(frozen=True)
class LongRunVariance:
    matrix: np.ndarray
    bandwidth: int
    psd_clipped: bool  # negative eigenvalues were projected to zero
    positive_definite: bool


def long_run_variance(x, bandwidth="auto") -> LongRunVariance:
    """Bartlett-kernel estimate of the long-run covariance of a row sequence.

    ``auto`` bandwidth is floor(n^(1/3)).  The estimate is symmetrized and,
    if indefinite, projected onto the PSD cone by clipping negative
    eigenvalues (flagged, never silent).
    """
    x = np.asarray(x, dtype=float)
    x = as_matrix(x[:, None] if x.ndim == 1 else x)
    n, d = x.shape
    if bandwidth == "auto":
        b = _icbrt(n)
    else:
        b = as_integer(bandwidth, "bandwidth")
        if b < 0:
            raise InvalidParams("bandwidth must be non-negative")
    if n < 10 * (b + 1):
        raise InsufficientData(f"need at least 10*(bandwidth+1) = {10 * (b + 1)} rows")
    xc = x - x.mean(axis=0)
    out = xc.T @ xc / n
    for k in range(1, b + 1):
        gamma = xc[k:].T @ xc[:-k] / n
        out += (1.0 - k / (b + 1.0)) * (gamma + gamma.T)
    out = 0.5 * (out + out.T)
    if not np.any(out):
        return LongRunVariance(out, b, psd_clipped=False, positive_definite=False)
    eigs, vecs = np.linalg.eigh(out)  # ascending
    clipped = bool(eigs[0] < 0)
    pd = bool(eigs[0] > 0)
    if clipped:
        out = vecs @ np.diag(np.clip(eigs, 0.0, None)) @ vecs.T
        out = 0.5 * (out + out.T)
    return LongRunVariance(out, b, psd_clipped=clipped, positive_definite=pd)


def _icbrt(n: int) -> int:
    """Exact integer floor cube root (float powers round 1000**(1/3) down)."""
    k = int(round(n ** (1.0 / 3.0)))
    while (k + 1) ** 3 <= n:
        k += 1
    while k**3 > n:
        k -= 1
    return max(k, 0)
