"""Weakly dependent error-sequence generators with declarative rate metadata.

Three generator kinds are provided:

* ``iid_gaussian`` -- independent Gaussian draws.
* ``ma`` -- Gaussian moving average of order q.  The output is q-dependent,
  so its uniform-mixing coefficient vanishes beyond lag q; this is the
  phi-mixing exemplar.
* ``ar1`` -- stationary Gaussian AR(1), the alpha-mixing exemplar.  Its true
  mixing rate is geometric; the declared polynomial envelope ``n^(-1-delta)``
  (constant 1) is metadata consumed by the assumption checker, not a derived
  bound.

A spec fixes a column's shape, not its amplitude: a draw is scaled so its
marginal standard deviation is exactly the sd it is drawn at, sqrt(sigma2)
for every column of an error matrix and 1 for ``generate_sequence``.  All
draws are pure functions of (spec, n, seed).

A single seed is drawn through ``seeding.stream``, one generator per column
(``generate_sequence``, ``generate_error_matrix``, so ``gen`` and
``synthesize``).  Every seeded draw of many rows goes through ``map_draws``:
it derives the PCG64 seed words of all rows' streams at once and hands its
chunks of blocks to a standard-library thread pool of at most one thread
per usable CPU (none on one CPU), within a budget of ``CHUNK_ELEMENTS``
floats in flight.  This is the only place in the package that reads the CPU
count or starts a thread.  What the threads overlap is each chunk's filter
and the caller's ``reduce``, numpy work on the whole chunk; the per-row
draws gain less and not reliably, since each row's generator state is set
in Python under the interpreter lock (iid-only ``map_draws`` at R = n =
2000, p = 2 on a 2-vCPU host: medians of 0.26-0.28 s on one worker and
0.17-0.31 s on two, over four interleaved runs of 15).  Each chunk is filled
with one scratch generator set to each row's stream in turn, filtered as
one array (AR(1) by one ``lfilter`` along the last axis, MA(q) by one
shifted-slice sum) and passed to the caller's ``reduce``.  The Monte Carlo
experiments reduce to Gram matrices and ``stats.clt_check`` to row sums.  A
row depends only on its seed, never on the chunk or thread that draws it,
so block r of ``map_draws`` equals the transposed ``generate_error_matrix``
of seed r bit for bit.  ``scipy.signal`` is imported only when an AR(1)
column is drawn; iid and MA(q) columns need numpy alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import InvalidParams
from .linalg import as_number, as_tuple, config_object, from_keys
from .seeding import column_subseed, pcg64_seed_words, stream, streams

MIXING_ALPHA = "alpha"
MIXING_PHI = "phi"
MIXING_INDEPENDENT = "independent"

CHUNK_ELEMENTS = 1 << 18  # floats of raw error data in flight in map_draws (2 MB)


# The fields each process kind does not read; a spec that sets one is refused.
UNREAD_FIELDS = {"iid_gaussian": ("coeffs", "a", "delta"), "ma": ("a", "delta"), "ar1": ("coeffs",)}


@dataclass(frozen=True)
class ErrorProcessSpec:
    """One error column: generator kind plus mixing/moment metadata."""

    kind: str  # "iid_gaussian" | "ma" | "ar1"
    coeffs: tuple[float, ...] | None = None  # MA coefficients c_0..c_q
    a: float | None = None  # AR(1) coefficient
    delta: float | None = None  # polynomial rate exponent in n^(-1-delta)
    omega: float | None = None  # moment surplus in E|xi|^(4+omega)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in UNREAD_FIELDS:
            raise InvalidParams(f"unknown process kind {self.kind!r}")
        for name in UNREAD_FIELDS[self.kind]:
            if getattr(self, name) is not None:
                raise InvalidParams(f"kind {self.kind!r} takes no {name}")
        for name in ("a", "delta", "omega"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_number(getattr(self, name), name))
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", as_tuple(self.coeffs, as_number, "coeffs"))
        if self.delta is not None and np.isnan(self.delta):
            raise InvalidParams("delta must be a number, got nan")
        if self.omega is not None and not self.omega > 0:
            raise InvalidParams(f"omega must be positive, got {self.omega!r}")
        if self.kind == "ma":
            if not self.coeffs:
                raise InvalidParams("ma spec needs at least one coefficient")
            with np.errstate(over="ignore", under="ignore"):
                square = np.dot(self.coeffs, self.coeffs)
            # A draw is divided by the 2-norm sqrt(square), which is accurate
            # only when square is a finite float above the subnormal range.
            if not np.finfo(float).tiny <= square < np.inf:
                raise InvalidParams(
                    f"ma coefficients need a finite, non-subnormal sum of squares, got {square:g}"
                )
        elif self.kind == "ar1":
            if self.a is None or not np.isfinite(self.a) or abs(self.a) >= 1:
                raise InvalidParams("ar1 needs |a| < 1")

    @property
    def mixing_class(self) -> str:
        """Mixing class of the kind: phi for MA(q), alpha for AR(1), independent for iid."""
        return {"ma": MIXING_PHI, "ar1": MIXING_ALPHA}.get(self.kind, MIXING_INDEPENDENT)

    @property
    def order(self) -> int:
        """Dependence range: q for MA(q), 0 for iid (AR(1) has no finite range)."""
        if self.kind == "ma":
            return len(self.coeffs) - 1
        return 0

    def to_dict(self) -> dict:
        # Fixed keys: every column is stationary, and its sd is set by the draw.
        out = {"kind": self.kind, "scale": 1.0, "stationary": True}
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = list(value) if f.name == "coeffs" else value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ErrorProcessSpec":
        d = config_object(d, "error process")
        if d.pop("stationary", True) is not True:
            raise InvalidParams("every generator is stationary; stationary must be true")
        scale = d.pop("scale", 1.0)
        if as_number(scale, "scale") != 1.0:
            raise InvalidParams(
                f"scale must be 1, got {scale!r}: error-matrix columns are drawn "
                "at sd sqrt(sigma2), a clt-check process at sd 1"
            )
        return from_keys(cls, d, "error process")


def iid_gaussian(omega: float | None = None) -> ErrorProcessSpec:
    return ErrorProcessSpec(kind="iid_gaussian", omega=omega)


def ma(coeffs: tuple[float, ...], omega: float | None = None) -> ErrorProcessSpec:
    """Gaussian MA(q) with coefficients ``coeffs = (c_0, ..., c_q)``."""
    return ErrorProcessSpec(kind="ma", coeffs=coeffs, omega=omega)


def ar1(a: float, delta: float | None = None, omega: float | None = None) -> ErrorProcessSpec:
    """Stationary Gaussian AR(1) with coefficient ``a``."""
    return ErrorProcessSpec(kind="ar1", a=a, delta=delta, omega=omega)


def _fill_column(spec: ErrorProcessSpec, sd: float, rngs, out: np.ndarray) -> None:
    """Write one draw of the process at marginal sd ``sd`` into each row of ``out``.

    Row r takes its normals from the r-th generator of the iterable ``rngs``
    alone, drawn into a preallocated buffer with ``standard_normal(out=...)``
    before the next generator is taken (so ``rngs`` may yield one generator
    reseeded per row, as ``seeding.streams`` does); the filter then runs
    over all rows at once.
    """
    rows, n = out.shape
    if spec.kind == "iid_gaussian":
        for row, rng in zip(out, rngs):
            rng.standard_normal(out=row)
        out *= sd
        return
    lead = spec.order if spec.kind == "ma" else 1  # AR(1) draws its start first
    raw = np.empty((rows, lead + n))
    for row, rng in zip(raw, rngs):
        rng.standard_normal(out=row)
    if spec.kind == "ma":
        c = np.asarray(spec.coeffs)
        # x_t = sd * sum_j c_j eta_{t-j} / ||c||_2, so Var x_t = sd^2.
        np.multiply(raw[:, lead:], c[0], out=out)
        for j in range(1, lead + 1):
            out += c[j] * raw[:, lead - j : lead - j + n]
        out *= sd
        out /= np.linalg.norm(c)
        return
    from scipy.signal import lfilter

    a = spec.a
    x0 = sd * raw[:, 0]
    innov = raw[:, 1:]
    innov *= sd * np.sqrt(1.0 - a * a)
    # Stationary start: x_0 ~ N(0, sd^2), then x_t = a x_{t-1} + e_t.
    out[...], _ = lfilter([1.0], [1.0, -a], innov, axis=-1, zi=a * x0[:, None])


def map_draws(columns, seeds: np.ndarray, n: int, reduce: Callable[[np.ndarray], object]) -> list:
    """``reduce(block)`` over chunks of the error blocks of a (C, R) uint64 array of stream seeds.

    ``columns`` holds C (process, sd) pairs; row j of block r is a draw of
    ``columns[j]`` from ``stream(seeds[j, r])``.  The PCG64 seed words of
    all C R streams are derived once.  Each chunk of ``rows`` consecutive
    blocks is drawn into its own (k, C, n) array with its own scratch
    generator; ``rows`` is the most blocks of which one chunk per usable
    CPU fits in ``CHUNK_ELEMENTS`` floats, the raw data in flight.  A thread
    pool of at most one thread per usable CPU runs the chunks (the calling
    thread does, on one CPU or for one chunk), so ``reduce`` may run on
    several threads at once.  The results come back in block order, and
    the first chunk in that order to raise raises here.
    """
    words = pcg64_seed_words(seeds)
    count = seeds.shape[1]
    workers = _usable_cpus()
    rows = max(1, CHUNK_ELEMENTS // (workers * len(columns) * n))
    starts = range(0, count, rows)

    def step(lo: int):
        hi = min(lo + rows, count)
        rng = stream(0)
        block = np.empty((hi - lo, len(columns), n))
        for j, (spec, sd) in enumerate(columns):
            _fill_column(spec, sd, streams(rng, words[:, j, lo:hi]), block[:, j])
        return reduce(block)

    if workers == 1 or len(starts) < 2:
        return [step(lo) for lo in starts]
    from concurrent.futures import ThreadPoolExecutor  # here: it imports logging

    with ThreadPoolExecutor(min(workers, len(starts))) as pool:
        return list(pool.map(step, starts))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def generate_sequence(spec: ErrorProcessSpec, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` values of the process at unit sd; deterministic given (spec, n, seed)."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    out = np.empty((1, n))
    _fill_column(spec, 1.0, [stream(seed)], out)
    return out[0]


@dataclass(frozen=True)
class ErrorMatrixSpec:
    """Column specs for the joint error matrix plus the common variance."""

    column_specs: tuple[ErrorProcessSpec, ...]
    sigma2: float = 1.0

    def __post_init__(self):
        cols = as_tuple(self.column_specs, lambda c, _: _as_process(c), "columns")
        if not cols:
            raise InvalidParams("need at least one error column")
        sigma2 = as_number(self.sigma2, "sigma2")
        if not (sigma2 > 0 and np.isfinite(sigma2)):
            raise InvalidParams("sigma2 must be positive and finite")
        object.__setattr__(self, "column_specs", cols)
        object.__setattr__(self, "sigma2", sigma2)

    @property
    def p(self) -> int:
        return len(self.column_specs) - 1

    def to_dict(self) -> dict:
        return {
            "sigma2": self.sigma2,
            "columns": [s.to_dict() for s in self.column_specs],
        }

    def column_draws(self, seeds: np.ndarray) -> tuple[list, np.ndarray]:
        """``map_draws``'s columns and (p+1, R) stream seeds for the matrices of uint64 ``seeds``.

        Column j (1-based) of the matrix for ``seeds[r]`` is drawn at sd
        sqrt(sigma2) from ``stream(column_subseed(seeds[r], j))``.
        """
        sd = float(np.sqrt(self.sigma2))
        j = np.arange(1, len(self.column_specs) + 1, dtype=np.uint64)[:, None]
        return [(spec, sd) for spec in self.column_specs], column_subseed(seeds, j)

    @classmethod
    def from_dict(cls, d: dict) -> "ErrorMatrixSpec":
        d = config_object(d, "errors")
        columns = d.pop("columns", ())
        return from_keys(cls, d, "errors", column_specs=columns)


def _as_process(c) -> ErrorProcessSpec:
    return c if isinstance(c, ErrorProcessSpec) else ErrorProcessSpec.from_dict(c)


def generate_error_matrix(spec: ErrorMatrixSpec, n: int, seed: int) -> np.ndarray:
    """Draw the n x (p+1) error matrix with mutually independent columns.

    Column j (1-based) is drawn at sd sqrt(sigma2) from its own PCG64 stream,
    ``stream(column_subseed(seed, j))``; ``seed`` is an int taken modulo 2^64.
    ``map_draws`` over ``spec.column_draws`` draws the same matrices,
    transposed, for many seeds at once.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    seed = int(seed) % (1 << 64)
    sd = float(np.sqrt(spec.sigma2))
    w = np.empty((len(spec.column_specs), n))
    for j, col in enumerate(spec.column_specs):
        _fill_column(col, sd, [stream(column_subseed(seed, j + 1))], w[j : j + 1])
    return np.ascontiguousarray(w.T)
