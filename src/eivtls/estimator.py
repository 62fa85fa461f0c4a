"""Total least squares fit via the Gram-matrix eigenproblem.

The estimate comes from the smallest eigenpair of ``[x, y].T @ [x, y]``:
the associated eigenvector, normalized so its last entry is -1, stacks the
coefficient vector on top of -1, and the eigenvalue divided by n estimates
the common error variance.  The closed form ``(x.T x - lam I)^-1 x.T y`` is
computed as well and cross-checked against the eigenvector ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IllConditioned,
    InvalidParams,
    NonGeneric,
    NotPositiveDefinite,
)
from .linalg import as_matrix, as_vector, solve_spd, sym_eig

NONGENERIC_RTOL = 1e-10  # threshold on |v_last| relative to max |v| entry
EIG_GAP_RTOL = 1e-10  # minimal gap between the two smallest eigenvalues
CROSS_CHECK_TOL = 1e-7


@dataclass(frozen=True)
class TlsFit:
    """TLS estimate and its byproducts for one dataset."""

    beta_hat: np.ndarray
    lam: float  # (p+1)-st largest eigenvalue of the Gram matrix
    sigma2_hat: float  # lam / n
    v: np.ndarray  # eigenvector for lam, scaled so v[-1] == -1
    delta_n: np.ndarray  # (x.T x - lam I) / n
    n: int


def _joint_gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    xy = np.column_stack([x, y])
    return xy.T @ xy


def tls_fit(x, y) -> TlsFit:
    """Fit the TLS estimate; raises NonGeneric or IllConditioned when it fails."""
    x = as_matrix(x)
    y = as_vector(y)
    n, p = x.shape
    if y.shape[0] != n:
        raise DimensionMismatch(f"x has {n} rows, y has {y.shape[0]}")
    if n < p + 1:
        raise InvalidParams(f"need n >= p + 1 = {p + 1}, got n = {n}")

    m = _joint_gram(x, y)
    eig = sym_eig(m)
    lam = float(eig.eigenvalues[p])
    norm_m = float(np.sqrt(np.sum(m * m)))
    gap = float(eig.eigenvalues[p - 1] - eig.eigenvalues[p])
    if gap < EIG_GAP_RTOL * norm_m:
        raise IllConditioned(
            f"two smallest eigenvalues within {gap:g}; estimate not identifiable"
        )
    v = eig.eigenvectors[:, p]
    if abs(v[p]) <= NONGENERIC_RTOL * np.max(np.abs(v)):
        raise NonGeneric("last entry of the smallest eigenvector is numerically zero")
    v = v / (-v[p])  # normalize so the last entry is -1
    beta_from_v = v[:p].copy()

    xtx = x.T @ x
    shifted = xtx - lam * np.eye(p)
    try:
        beta_closed = solve_spd(shifted, x.T @ y)
    except NotPositiveDefinite as exc:
        raise IllConditioned(f"x.T x - lam I is not positive definite: {exc}") from None
    scale = 1.0 + float(np.max(np.abs(beta_from_v)))
    if np.max(np.abs(beta_closed - beta_from_v)) > CROSS_CHECK_TOL * scale:
        raise IllConditioned(
            "closed-form and eigenvector estimates disagree beyond tolerance"
        )
    return TlsFit(
        beta_hat=beta_closed,
        lam=lam,
        sigma2_hat=lam / n,
        v=v,
        delta_n=shifted / n,
        n=n,
    )


def ols_fit(x, y) -> np.ndarray:
    """Ordinary least squares reference fit (attenuated under covariate error)."""
    x = as_matrix(x)
    y = as_vector(y)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch("x and y row counts differ")
    return solve_spd(x.T @ x, x.T @ y)


def orthogonal_residual_norm(x, y, beta) -> float:
    """Frobenius norm of the smallest correction aligning the data with ``beta``.

    Each row's minimal correction is its orthogonal distance to the
    hyperplane ``{(u, v): u @ beta = v}``; at the TLS estimate this equals
    the square root of the fitted eigenvalue.
    """
    x = as_matrix(x)
    y = as_vector(y)
    beta = as_vector(beta)
    if y.shape[0] != x.shape[0]:
        raise DimensionMismatch("x and y row counts differ")
    if beta.shape[0] != x.shape[1]:
        raise DimensionMismatch("beta length must match x columns")
    resid = x @ beta - y
    return float(np.linalg.norm(resid) / np.sqrt(1.0 + beta @ beta))
