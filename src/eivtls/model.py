"""Synthetic errors-in-variables datasets on bounded designs.

A dataset realizes ``y = z @ beta + eps`` and ``x = z + theta``, where the
design ``z`` is deterministic, bounded, and built so that the limit of
``z.T @ z / n`` exists and is positive definite; ``DesignSpec.limit`` is
that limit.  ``signal`` is the one source of the noise-free rows that
``synthesize`` and every Monte Carlo replication add their errors to.
``check_model`` is the one check that beta, the design and the error
columns agree on p, and ``expected_cross_product`` gives the exact
expected cross-product of ``[x, y]`` that the distributional checks use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NumericalError
from .linalg import (
    as_integer,
    as_matrix,
    as_number,
    as_tuple,
    as_vector,
    check_kind,
    from_keys,
    to_keys,
)
from .processes import ErrorMatrixSpec, generate_error_matrix


# The fields each design kind reads; a spec that sets any other is refused.
KIND_FIELDS = {"repeating_block": ("block",), "sinusoidal": ("frequencies",)}


@dataclass(frozen=True)
class DesignSpec:
    """Deterministic design: a tiled block or bounded sinusoids.

    ``repeating_block`` tiles a fixed k x p block vertically, so the limit
    matrix is exactly ``block.T @ block / k`` (attained whenever k divides n).
    ``sinusoidal`` uses ``sin(2*pi*f_j*i)`` columns with distinct frequencies
    in (0, 0.5), whose limit matrix is ``I/2``.
    """

    kind: str  # "repeating_block" | "sinusoidal"
    block: np.ndarray | None = None
    frequencies: tuple[float, ...] | None = None

    def __post_init__(self):
        check_kind(self, KIND_FIELDS, "design")
        if self.kind == "repeating_block":
            if self.block is None:
                raise InvalidParams("repeating_block needs a block matrix")
            object.__setattr__(self, "block", as_matrix(self.block))
            with np.errstate(over="ignore"):
                if not np.all(np.isfinite(self.limit)):
                    raise InvalidParams("the limit matrix block.T @ block / k overflows")
            if np.linalg.matrix_rank(self.block) < self.p:
                raise InvalidParams("block columns are linearly dependent")
        else:
            freqs = self.frequencies
            freqs = () if freqs is None else as_tuple(freqs, as_number, "frequencies")
            if not freqs:
                raise InvalidParams("sinusoidal needs at least one frequency")
            if len(set(freqs)) != len(freqs):
                raise InvalidParams("frequencies must be distinct")
            if not all(0.0 < f < 0.5 for f in freqs):
                raise InvalidParams("frequencies must lie in (0, 0.5)")
            object.__setattr__(self, "frequencies", freqs)

    @property
    def p(self) -> int:
        if self.kind == "repeating_block":
            return self.block.shape[1]
        return len(self.frequencies)

    @property
    def limit(self) -> np.ndarray:
        """The limit matrix lim z.T @ z / n: ``block.T @ block / k``, or ``I/2`` for sinusoids."""
        if self.kind == "repeating_block":
            return self.block.T @ self.block / self.block.shape[0]
        return 0.5 * np.eye(self.p)

    def to_dict(self) -> dict:
        return to_keys(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DesignSpec":
        return from_keys(cls, d, "design")


def repeating_block(block) -> DesignSpec:
    return DesignSpec(kind="repeating_block", block=block)


def sinusoidal(frequencies) -> DesignSpec:
    return DesignSpec(kind="sinusoidal", frequencies=frequencies)


def build_design(spec: DesignSpec, n: int) -> np.ndarray:
    """Return the n x p design matrix; its limit matrix is ``spec.limit``."""
    n = as_integer(n, "n", spec.p + 2)
    if spec.kind == "repeating_block":
        k = spec.block.shape[0]
        return np.tile(spec.block, (-(-n // k), 1))[:n]
    idx = np.arange(1, n + 1, dtype=float)
    return np.sin(2.0 * np.pi * np.outer(idx, np.asarray(spec.frequencies)))


def check_model(p: int, beta, errors: ErrorMatrixSpec | None = None) -> np.ndarray:
    """``beta`` as a vector, once it has p entries and ``errors``, if given, p + 1 columns."""
    beta = as_vector(beta)
    if beta.shape[0] != p:
        raise InvalidParams(f"beta has {beta.shape[0]} entries, design has p={p}")
    if errors is not None and errors.p != p:
        raise InvalidParams(f"error spec has {errors.p + 1} columns, expected p + 1 = {p + 1}")
    return beta


def signal(design: DesignSpec, beta, n: int) -> np.ndarray:
    """The (p+1, n) rows ``[z.T; z @ beta]``; any overflow is left as inf or NaN."""
    z = build_design(design, n)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.vstack([z.T, z @ check_model(design.p, beta)])


@dataclass(frozen=True)
class EivInstance:
    """One synthesized dataset together with the latent truth that built it."""

    z: np.ndarray
    beta: np.ndarray
    sigma2: float
    theta: np.ndarray
    eps: np.ndarray
    x: np.ndarray
    y: np.ndarray


def synthesize(
    design: DesignSpec,
    beta,
    errors: ErrorMatrixSpec,
    n: int,
    seed: int,
) -> EivInstance:
    """Draw [theta, eps] and form x = z + theta, y = z beta + eps on the rows of ``signal``."""
    beta = check_model(design.p, beta, errors)
    rows = signal(design, beta, n)
    z = rows[:-1].T
    w = generate_error_matrix(errors, n, seed)
    theta, eps = w[:, :-1], w[:, -1]
    with np.errstate(over="ignore", invalid="ignore"):
        y = rows[-1] + eps
    if not np.all(np.isfinite(y)):
        raise NumericalError(f"the signal y = z @ beta + eps overflows at n = {n}")
    return EivInstance(z=z, beta=beta, sigma2=errors.sigma2, theta=theta, eps=eps, x=z + theta, y=y)


def expected_cross_product(z, beta, sigma2: float) -> np.ndarray:
    """E [x, y]^T [x, y] for the model: [I, b]^T z^T z [I, b] + n sigma^2 I."""
    z = as_matrix(z)
    n, p = z.shape
    beta = check_model(p, beta)
    sigma2 = as_number(sigma2, "sigma2")
    if not 0.0 <= sigma2 < np.inf:
        raise InvalidParams(f"sigma2 must be non-negative and finite, got {sigma2}")
    ib = np.hstack([np.eye(p), beta[:, None]])  # p x (p+1)
    return ib.T @ (z.T @ z) @ ib + n * sigma2 * np.eye(p + 1)
