"""Total least squares fit via the Gram-matrix eigenproblem.

The estimate comes from the smallest eigenpair of ``[x, y].T @ [x, y]``:
the associated eigenvector, normalized so its last entry is -1, stacks the
coefficient vector on top of -1, and the eigenvalue divided by n estimates
the common error variance.  The closed form ``(x.T x - lam I)^-1 x.T y`` is
computed as well and cross-checked against the eigenvector ratio.

The estimate depends on the data only through that (p+1) x (p+1) Gram
matrix, so every fit in the package runs through one vectorised kernel,
``tls_from_gram``, over a stack of Gram matrices; ``tls_fit`` is its
one-dataset case.  ``ols_from_gram`` is the OLS reference on the same
stacks.  The kernels start no thread; the ``processes`` docstring states
which work runs on threads.

Every Gram matrix of data, one dataset's or a Monte Carlo chunk's, comes
from one kernel, ``gram_stack``, so a replication's Gram is the Gram that
``tls_fit`` takes of the same data, bit for bit.  It sums with ``einsum``
and makes no BLAS call: ``@`` sends each small (p+1) x n by n x (p+1)
product of a stack to BLAS on its own, 1.2 to 2.4 times the time of one
``einsum`` loop over the stack at p <= 2 (about even at p = 3), and BLAS
dot kernels split long sums across threads, so their bits depend on the
thread count.  ``einsum`` in turn sums a row of more than 8192 columns (its
buffer) in an order that depends on the shape of the stack, and a strided
row in another order than a contiguous one.  So the kernel copies the stack
to C order and sums blocks of ``GRAM_BLOCK`` columns, adding them in column
order: each Gram then depends on its own rows alone, never on the chunk
that holds them.

Every Gram the package forms is exactly symmetric, so the kernels never
symmetrise: ``tls_from_gram`` and ``ols_from_gram`` read the lower triangle
of each matrix, as LAPACK's ``eigh`` does, and a caller's asymmetric stack
is fitted as the symmetric matrix of its lower triangle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IllConditioned, InvalidParams, NonGeneric, NumericalError
from .linalg import as_matrix, as_vector

NONGENERIC_RTOL = 1e-10  # threshold on |v_last| relative to max |v| entry
EIG_GAP_RTOL = 1e-10  # minimal gap between the two smallest eigenvalues
CROSS_CHECK_TOL = 1e-7
GRAM_BLOCK = 4096  # columns per einsum call in gram_stack: under einsum's 8192-float buffer

# Per-row status of tls_from_gram: ok, or the guard that refused the fit.
FIT_OK = 0
FIT_EIG_GAP = 1
FIT_NONGENERIC = 2
FIT_NOT_SPD = 3
FIT_CROSS_CHECK = 4
FIT_NOT_FINITE = 5  # checked before the others: the Gram matrix overflowed or holds NaN

# The error tls_fit raises for each failing status.
FIT_FAILURES = {
    FIT_NOT_FINITE: (IllConditioned, "Gram matrix has non-finite entries"),
    FIT_EIG_GAP: (
        IllConditioned,
        "two smallest eigenvalues within tolerance; estimate not identifiable",
    ),
    FIT_NONGENERIC: (
        NonGeneric,
        "last entry of the smallest eigenvector is numerically zero",
    ),
    FIT_NOT_SPD: (IllConditioned, "x.T x - lam I is not positive definite"),
    FIT_CROSS_CHECK: (
        IllConditioned,
        "closed-form and eigenvector estimates disagree beyond tolerance",
    ),
}


@dataclass(frozen=True)
class TlsFit:
    """TLS estimate and its byproducts for one dataset."""

    beta_hat: np.ndarray
    lam: float  # (p+1)-st largest eigenvalue of the Gram matrix
    sigma2_hat: float  # lam / n
    v: np.ndarray  # eigenvector for lam, scaled so v[-1] == -1
    delta_n: np.ndarray  # (x.T x - lam I) / n
    n: int


class GramFits(NamedTuple):
    """Row-wise result of ``tls_from_gram`` on an (R, p+1, p+1) stack."""

    beta: np.ndarray  # (R, p) closed-form estimates; NaN where status != FIT_OK
    lam: np.ndarray  # (R,) smallest eigenvalue of each Gram matrix; NaN if not finite
    v: np.ndarray  # (R, p+1) smallest eigenvectors, scaled so v[:, -1] == -1; NaN where status != FIT_OK
    status: np.ndarray  # (R,) FIT_OK or the FIT_* code of the failing guard


def _solve_leading(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``a[:p, :p] beta = a[:p, p]`` for each matrix of an (R, p+1, p+1) stack.

    A Cholesky factorisation of the leading p x p block, row by row: column j
    of the factor of the whole matrix holds L[:, j] in rows :p and the
    forward-substituted right-hand side in row p.  Returns ``(beta, spd)``;
    a row whose block has a pivot that is not positive gets ``spd`` False
    and a meaningless ``beta``, and leaves every other row untouched.
    """
    r, d, _ = a.shape
    p = d - 1
    low = np.zeros((r, d, p))
    spd = np.ones(r, dtype=bool)
    for j in range(p):
        pivot = a[:, j, j] - np.einsum("rk,rk->r", low[:, j, :j], low[:, j, :j])
        spd &= pivot > 0
        root = np.sqrt(np.where(spd, pivot, 1.0))
        low[:, j, j] = root
        below = a[:, j + 1 :, j] - np.einsum("rik,rk->ri", low[:, j + 1 :, :j], low[:, j, :j])
        low[:, j + 1 :, j] = below / root[:, None]
    beta = np.empty((r, p))
    for j in reversed(range(p)):
        done = np.einsum("rk,rk->r", low[:, j + 1 : p, j], beta[:, j + 1 :])
        beta[:, j] = (low[:, p, j] - done) / low[:, j, j]
    return beta, spd


def tls_from_gram(m) -> GramFits:
    """TLS fits of an (R, p+1, p+1) stack of Gram matrices of ``[x, y]``.

    Refuses a row with a non-finite entry, then runs one batched ``eigh``
    and the guards of ``tls_fit``, in order, on every other row: the
    eigen-gap guard, the non-generic eigenvector guard, positive
    definiteness of ``G[:p, :p] - lam I`` and the closed-form cross-check.
    The first guard a row fails is its status; a failing row never changes
    the result of another.  It works in one copy of the stack, reads the
    lower triangle of each matrix, and its ``tracemalloc`` peak is at most
    about 5.6, 4.4 and 4.0 times the stack's bytes at p = 1, 2 and 3
    (20 000 rows or more).
    """
    m = np.array(m, dtype=float)
    p = m.shape[-1] - 1
    finite = np.all(np.isfinite(m), axis=(1, 2))
    status = np.where(finite, FIT_OK, FIT_NOT_FINITE).astype(np.int8)
    m[~finite] = 0.0  # eigh never sees a non-finite row
    eigs, vecs = np.linalg.eigh(m)  # ascending
    lam = eigs[:, 0]

    def refuse(failed, code):
        status[(status == FIT_OK) & failed] = code

    # ||G||_F is the 2-norm of G's eigenvalues; hypot squares nothing, so it
    # stays finite for a Gram near the float limit.
    norm_m = np.hypot.reduce(eigs, axis=1)
    refuse(eigs[:, 1] - lam < EIG_GAP_RTOL * norm_m, FIT_EIG_GAP)
    v = vecs[:, :, 0]
    last = v[:, p]
    refuse(np.abs(last) <= NONGENERIC_RTOL * np.max(np.abs(v), axis=1), FIT_NONGENERIC)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = v / -last[:, None]  # normalize so the last entry is -1
        m[:, range(p), range(p)] -= lam[:, None]  # m is the kernel's own copy
        beta, spd = _solve_leading(m)
        refuse(~spd, FIT_NOT_SPD)
        scale = 1.0 + np.max(np.abs(v[:, :p]), axis=1)
        agree = np.max(np.abs(beta - v[:, :p]), axis=1) <= CROSS_CHECK_TOL * scale
    refuse(~agree, FIT_CROSS_CHECK)
    failed = status != FIT_OK
    beta[failed] = v[failed] = np.nan
    lam[~finite] = np.nan
    return GramFits(beta=beta, lam=lam, v=v, status=status)


def gram_stack(xy) -> np.ndarray:
    """(k, C, C) Gram matrices ``xy[r] @ xy[r].T`` of a (k, C, n) stack, with no BLAS call.

    ``einsum`` over blocks of ``GRAM_BLOCK`` columns of the C-ordered
    stack, added in column order, so that each Gram depends only on its own
    rows (see the module docstring).  A sum that overflows is left inf or
    NaN without a warning, as ``einsum`` leaves it: ``tls_from_gram``
    refuses such a Gram as ``FIT_NOT_FINITE``.
    """
    xy = np.ascontiguousarray(xy)
    part = xy[..., :GRAM_BLOCK]
    out = np.einsum("kin,kjn->kij", part, part)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(GRAM_BLOCK, xy.shape[-1], GRAM_BLOCK):
            part = xy[..., lo : lo + GRAM_BLOCK]
            out += np.einsum("kin,kjn->kij", part, part)
    return out


def _joint_gram(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Validated x and the (1, p+1, p+1) Gram stack of ``[x, y]``."""
    x = as_matrix(x)
    y = as_vector(y)
    if y.shape[0] != x.shape[0]:
        raise InvalidParams(f"x has {x.shape[0]} rows, y has {y.shape[0]}")
    return x, gram_stack(np.vstack([x.T, y])[None])


def tls_fit(x, y) -> TlsFit:
    """Fit the TLS estimate; raises NonGeneric or IllConditioned when it fails."""
    x, m = _joint_gram(x, y)
    n, p = x.shape
    if n < p + 1:
        raise InvalidParams(f"need n >= p + 1 = {p + 1}, got n = {n}")
    fit = tls_from_gram(m)
    status = int(fit.status[0])
    if status != FIT_OK:
        error, message = FIT_FAILURES[status]
        raise error(message)
    lam = float(fit.lam[0])
    return TlsFit(
        beta_hat=fit.beta[0],
        lam=lam,
        sigma2_hat=lam / n,
        v=fit.v[0],
        delta_n=(m[0, :p, :p] - lam * np.eye(p)) / n,
        n=n,
    )


def ols_from_gram(m) -> np.ndarray:
    """(R, p) OLS fits ``G[:p, :p]^-1 G[:p, p]`` of a stack of Gram matrices of ``[x, y]``.

    Raises NumericalError when some ``x.T x`` is not positive definite.
    """
    beta, spd = _solve_leading(np.asarray(m, dtype=float))
    if not np.all(spd):
        raise NumericalError(f"x.T x is not positive definite in {np.sum(~spd)} fits")
    return beta


def ols_fit(x, y) -> np.ndarray:
    """Ordinary least squares reference fit (attenuated under covariate error)."""
    return ols_from_gram(_joint_gram(x, y)[1])[0]

