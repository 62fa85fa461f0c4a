"""Minimal dense real linear algebra used by the estimator.

Matrices and vectors are plain ``numpy`` float arrays; the ``as_matrix`` /
``as_vector`` validators are the public constructors and reject non-finite
entries.  The kernels are thin wrappers over LAPACK through ``numpy``: a
Cholesky-based SPD solve and a symmetric eigendecomposition with a fixed
ordering and sign convention, which is all the estimator needs (the
relevant eigenproblem is (p+1) x (p+1)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParams,
    NotPositiveDefinite,
    NotSymmetric,
)


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidParams(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParams("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a 1-d float array with finite entries."""
    w = np.asarray(v, dtype=float)
    if w.ndim != 1 or w.shape[0] < 1:
        raise InvalidParams(f"expected a 1-d vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidParams("vector entries must be finite")
    return w


def frobenius_norm(a) -> float:
    """Square root of the sum of squared entries."""
    return float(np.sqrt(np.sum(as_matrix(a) ** 2)))


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor; raises NotPositiveDefinite if a pivot fails."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("Cholesky needs a square matrix")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from None


def solve_spd(a, b) -> np.ndarray:
    """Solve ``a x = b`` for symmetric positive definite ``a``."""
    a = as_matrix(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(f"matrix {a.shape} vs rhs {b.shape}")
    low = cholesky(a)
    y = np.linalg.solve(low, b)
    return np.linalg.solve(low.T, y)


@dataclass(frozen=True)
class SymEigResult:
    """Full eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are sorted descending and ``eigenvectors[:, j]`` is the
    unit eigenvector paired with ``eigenvalues[j]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_symmetric(a: np.ndarray) -> None:
    skew = np.max(np.abs(a - a.T))
    if skew > 1e-10 * max(1.0, float(np.sqrt(np.sum(a * a)))):
        raise NotSymmetric(f"matrix asymmetry {skew:g} exceeds tolerance")


def sym_eig(a) -> SymEigResult:
    """Eigendecomposition of a symmetric matrix by LAPACK (``np.linalg.eigh``).

    Deterministic for identical input.  Eigenvector signs are fixed so the
    entry of largest magnitude (lowest index on ties) is positive.
    """
    a = as_matrix(a)
    d = a.shape[0]
    if a.shape[1] != d:
        raise DimensionMismatch("eigendecomposition needs a square matrix")
    _check_symmetric(a)
    eigs, vecs = np.linalg.eigh(0.5 * (a + a.T))
    eigs, vecs = eigs[::-1], vecs[:, ::-1]
    lead = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)]
    return SymEigResult(eigenvalues=eigs, eigenvectors=vecs * np.where(lead < 0, -1.0, 1.0))
