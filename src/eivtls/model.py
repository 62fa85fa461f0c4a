"""Synthetic errors-in-variables datasets on bounded designs.

A dataset realizes ``y = z @ beta + eps`` and ``x = z + theta``, where the
design ``z`` is deterministic, bounded, and built so that the limit of
``z.T @ z / n`` exists and is positive definite.  Also provides the exact
model quantities used by the distributional checks: the expected
cross-product of ``[x, y]`` and the per-row score sequence whose normalized
sum carries the asymptotic normality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams, RankDeficientDesign
from .linalg import as_matrix, as_vector
from .processes import ErrorMatrixSpec, generate_error_matrix


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
        if self.kind == "repeating_block":
            if self.block is None:
                raise InvalidParams("repeating_block needs a block matrix")
            blk = as_matrix(self.block)
            object.__setattr__(self, "block", blk)
            with np.errstate(over="ignore"):
                if not np.all(np.isfinite(blk.T @ blk / blk.shape[0])):
                    raise InvalidParams("the limit matrix block.T @ block / k overflows")
            if np.linalg.matrix_rank(blk) < blk.shape[1]:
                raise RankDeficientDesign("block columns are linearly dependent")
        elif self.kind == "sinusoidal":
            if not self.frequencies:
                raise InvalidParams("sinusoidal needs at least one frequency")
            freqs = tuple(float(f) for f in self.frequencies)
            if len(set(freqs)) != len(freqs):
                raise InvalidParams("frequencies must be distinct")
            if not all(0.0 < f < 0.5 for f in freqs):
                raise InvalidParams("frequencies must lie in (0, 0.5)")
            object.__setattr__(self, "frequencies", freqs)
        else:
            raise InvalidParams(f"unknown design kind {self.kind!r}")

    @property
    def p(self) -> int:
        if self.kind == "repeating_block":
            return self.block.shape[1]
        return len(self.frequencies)

    def to_dict(self) -> dict:
        if self.kind == "repeating_block":
            return {"kind": self.kind, "block": self.block.tolist()}
        return {"kind": self.kind, "frequencies": list(self.frequencies)}

    @classmethod
    def from_dict(cls, d: dict) -> "DesignSpec":
        kind = d.get("kind")
        if kind == "repeating_block":
            return cls(kind=kind, block=np.asarray(d["block"], dtype=float))
        if kind == "sinusoidal":
            return cls(kind=kind, frequencies=tuple(d["frequencies"]))
        raise InvalidParams(f"unknown design kind {kind!r}")


def repeating_block(block) -> DesignSpec:
    return DesignSpec(kind="repeating_block", block=np.asarray(block, dtype=float))


def sinusoidal(frequencies) -> DesignSpec:
    return DesignSpec(kind="sinusoidal", frequencies=tuple(frequencies))


def build_design(spec: DesignSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the n x p design matrix and its limit matrix.

    For a repeating block whose row count divides ``n`` the limit is attained
    exactly at ``n``; otherwise it is the asymptotic value.
    """
    p = spec.p
    if n < p + 2:
        raise InvalidParams(f"n must be at least p + 2 = {p + 2}")
    if spec.kind == "repeating_block":
        blk = spec.block
        k = blk.shape[0]
        reps = -(-n // k)
        z = np.tile(blk, (reps, 1))[:n]
        delta = blk.T @ blk / k
        return z, delta
    idx = np.arange(1, n + 1, dtype=float)
    z = np.sin(2.0 * np.pi * np.outer(idx, np.asarray(spec.frequencies)))
    delta = 0.5 * np.eye(p)
    return z, delta


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

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def p(self) -> int:
        return self.z.shape[1]


def synthesize(
    design: DesignSpec,
    beta,
    errors: ErrorMatrixSpec,
    n: int,
    seed: int,
) -> EivInstance:
    """Build z, draw [theta, eps], and form x = z + theta, y = z beta + eps."""
    beta = as_vector(beta)
    p = design.p
    if beta.shape[0] != p:
        raise DimensionMismatch(f"beta has {beta.shape[0]} entries, design has p={p}")
    if errors.p != p:
        raise DimensionMismatch(
            f"error spec has {errors.p + 1} columns, expected p + 1 = {p + 1}"
        )
    z, _ = build_design(design, n)
    w = generate_error_matrix(errors, n, seed)
    theta = w[:, :p]
    eps = w[:, p]
    return EivInstance(
        z=z,
        beta=beta,
        sigma2=errors.sigma2,
        theta=theta,
        eps=eps,
        x=z + theta,
        y=z @ beta + eps,
    )


def expected_cross_product(z, beta, sigma2: float) -> np.ndarray:
    """E [x, y]^T [x, y] for the model: [I, b]^T z^T z [I, b] + n sigma^2 I."""
    z = as_matrix(z)
    beta = as_vector(beta)
    n, p = z.shape
    if beta.shape[0] != p:
        raise DimensionMismatch("beta length must match design columns")
    ib = np.hstack([np.eye(p), beta[:, None]])  # p x (p+1)
    return ib.T @ (z.T @ z) @ ib + n * sigma2 * np.eye(p + 1)


def score_sequence(inst: EivInstance, t) -> np.ndarray:
    """Per-row scores rho_i whose sum is t^T (G - E G) [beta; -1], G = [x,y]^T [x,y]."""
    t = as_vector(t)
    p = inst.p
    if t.shape[0] != p + 1:
        raise DimensionMismatch(f"t must have p + 1 = {p + 1} entries")
    b = np.append(inst.beta, -1.0)
    g = np.column_stack([inst.z, inst.z @ inst.beta])  # rows [z_i, z_i beta]
    w = np.column_stack([inst.theta, inst.eps])
    wb = w @ b
    return (g @ t) * wb + (w @ t) * wb - inst.sigma2 * float(t @ b)
