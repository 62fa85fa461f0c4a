"""Weakly dependent error-sequence generators with declarative rate metadata.

Three generator kinds are provided, each stated in one row of ``KINDS``:

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

This module owns the draw policy.  Every seeded error draw of the package
goes through ``map_draws``; a draw from one seed (``generate_sequence``,
``generate_error_matrix``, so ``gen`` and ``synthesize``) is its one block.
The bootstrap's block starts are not error draws: ``seeding.bounded_integers``
draws them.

* Chunks.  The PCG64 seed words of all rows' streams are derived at once
  (about 136 bytes a stream while derived, 32 after), and the blocks are
  cut into chunks of as many consecutive blocks as fit in
  ``CHUNK_ELEMENTS`` floats, counting C n + max(0, lead - n) a block for
  the longest lead: ``_fill_column`` holds one column's (lead + n)
  scratch at a time, and the budget does not count that one scratch
  (three MA(2) columns at n = 250 peak at 2.0 MB on one thread).  So a
  chunk depends on the work alone.
* Threads.  A standard-library thread pool of min(usable CPUs, chunks)
  threads runs the chunks, and the calling thread draws them itself when
  that is fewer than 2: one chunk or one CPU starts no thread.  Memory in
  flight is at most one chunk per pool thread, and ``reduce`` may run on
  several threads at once.  This is the only place in the package that
  reads the CPU count or starts a thread.
* Rows.  Each chunk is drawn by the one loop of ``_fill_column``, each row
  from its own generator, filtered as one array by each column's kind and
  passed to the caller's ``reduce``: Gram matrices for the Monte Carlo
  experiments, row sums for ``clt_check``.  A row depends only on its
  seed, never on the chunk or thread that draws it, so no result depends
  on the CPU count.
* Cost.  The pool pays end to end: on a 2-vCPU host, medians of 16
  alternated pairs against ``_usable_cpus`` returning 1 were 0.169 s
  against 0.275 s for a criterion-06-shaped ``run_normality`` and 0.129 s
  against 0.181 s for ``mc-consistency`` on the shipped p = 2 configs,
  about a third off.

``scipy.signal`` is imported only when an AR(1) column is drawn; iid and
MA(q) columns need numpy alone.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParams
from .linalg import (
    as_integer,
    as_number,
    as_spec,
    as_tuple,
    check_kind,
    config_object,
    from_keys,
    to_keys,
)
from .seeding import column_subseed, pcg64_seed_words, streams

MIXING_ALPHA = "alpha"
MIXING_PHI = "phi"
MIXING_INDEPENDENT = "independent"

CHUNK_ELEMENTS = 1 << 17  # floats of raw error data in one map_draws chunk (1 MB)


@dataclass(frozen=True)
class Kind:
    """One process kind: the fields a spec of it reads, what it declares and how it is drawn."""

    fields: tuple[str, ...]  # a spec that sets any other field is refused
    mixing_class: str
    check: Callable[["ErrorProcessSpec"], None]  # InvalidParams unless its fields are drawable
    lead: Callable[["ErrorProcessSpec"], int]  # normals a row draws before its n
    order: Callable[["ErrorProcessSpec"], int]  # dependence range (0 where none is finite)
    # (spec, raw, sd, out): the (rows, lead + n) normals raw as rows of the process at sd in out
    filter: Callable[["ErrorProcessSpec", np.ndarray, float, np.ndarray], None]


def _check_ma(spec) -> None:
    if not spec.coeffs:
        raise InvalidParams("ma spec needs at least one coefficient")
    with np.errstate(over="ignore", under="ignore"):
        square = np.dot(spec.coeffs, spec.coeffs)
    # A draw is divided by the 2-norm sqrt(square), which is accurate
    # only when square is a finite float above the subnormal range.
    if not np.finfo(float).tiny <= square < np.inf:
        raise InvalidParams(
            f"ma coefficients need a finite, non-subnormal sum of squares, got {square:g}"
        )


def _check_ar1(spec) -> None:
    if spec.a is None or not np.isfinite(spec.a) or abs(spec.a) >= 1:
        raise InvalidParams("ar1 needs |a| < 1")


def _ma_order(spec) -> int:
    return len(spec.coeffs) - 1


def _filter_iid(spec, raw: np.ndarray, sd: float, out: np.ndarray) -> None:
    out *= sd


def _filter_ma(spec, raw: np.ndarray, sd: float, out: np.ndarray) -> None:
    c = np.asarray(spec.coeffs)
    q, n = len(c) - 1, out.shape[1]
    # x_t = sd * sum_j c_j eta_{t-j} / ||c||_2, so Var x_t = sd^2.
    np.multiply(raw[:, q:], c[0], out=out)
    for j in range(1, q + 1):
        out += c[j] * raw[:, q - j : q - j + n]
    out *= sd
    out /= np.linalg.norm(c)


def _filter_ar1(spec, raw: np.ndarray, sd: float, out: np.ndarray) -> None:
    from scipy.signal import lfilter

    a = spec.a
    x0 = sd * raw[:, 0]
    # Stationary start: x_0 ~ N(0, sd^2), then x_t = a x_{t-1} + e_t, with
    # e_t = sd sqrt(1 - a^2) eta_t scaled by the filter's numerator.
    b = [sd * np.sqrt(1.0 - a * a)]
    out[...], _ = lfilter(b, [1.0, -a], raw[:, 1:], axis=-1, zi=a * x0[:, None])


def _zero(spec) -> int:
    return 0


KINDS = {
    "iid_gaussian": Kind(("omega",), MIXING_INDEPENDENT, lambda _: None, _zero, _zero, _filter_iid),
    "ma": Kind(("coeffs", "omega"), MIXING_PHI, _check_ma, _ma_order, _ma_order, _filter_ma),
    "ar1": Kind(("a", "delta", "omega"), MIXING_ALPHA, _check_ar1, lambda _: 1, _zero, _filter_ar1),
}


@dataclass(frozen=True)
class ErrorProcessSpec:
    """One error column: generator kind plus mixing/moment metadata."""

    kind: str  # a key of KINDS
    coeffs: tuple[float, ...] | None = None  # MA coefficients c_0..c_q
    a: float | None = None  # AR(1) coefficient
    delta: float | None = None  # polynomial rate exponent in n^(-1-delta)
    omega: float | None = None  # moment surplus in E|xi|^(4+omega)

    def __post_init__(self):
        check_kind(self, {name: kind.fields for name, kind in KINDS.items()}, "process")
        for name in ("a", "delta", "omega"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, as_number(getattr(self, name), name))
        if self.coeffs is not None:
            object.__setattr__(self, "coeffs", as_tuple(self.coeffs, as_number, "coeffs"))
        if self.delta is not None and not np.isfinite(self.delta):
            raise InvalidParams(f"delta must be finite, got {self.delta!r}")
        if self.omega is not None and not 0 < self.omega < np.inf:
            raise InvalidParams(f"omega must be positive and finite, got {self.omega!r}")
        KINDS[self.kind].check(self)

    @property
    def mixing_class(self) -> str:
        """Mixing class of the kind, from its ``KINDS`` row."""
        return KINDS[self.kind].mixing_class

    @property
    def order(self) -> int:
        """Dependence range of the kind, from its ``KINDS`` row (0 where none is finite)."""
        return KINDS[self.kind].order(self)

    def to_dict(self) -> dict:
        # Fixed keys: every column is stationary, and its sd is set by the draw.
        return {"kind": self.kind, "scale": 1.0, "stationary": True, **to_keys(self)}

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


def _fill_column(spec: ErrorProcessSpec, sd: float, words: np.ndarray, out: np.ndarray) -> None:
    """Write one draw of the process at marginal sd ``sd`` into each row of ``out``.

    ``words`` is the (4, rows) slice of ``seeding.pcg64_seed_words`` for
    the rows' streams.  Row r takes its kind's lead plus n normals from the
    generator ``seeding.streams`` builds from column r of ``words``, drawn
    with ``standard_normal(out=...)``; the kind's filter then runs over all
    rows at once.  A kind with no lead draws straight into ``out``.
    """
    kind = KINDS[spec.kind]
    lead = kind.lead(spec)
    raw = np.empty((out.shape[0], lead + out.shape[1])) if lead else out
    for row, rng in zip(raw, streams(words)):
        rng.standard_normal(out=row)
    kind.filter(spec, raw, sd, out)


def map_draws(
    specs, sd: float, seeds: np.ndarray, n: int, reduce: Callable[[np.ndarray], object]
) -> list:
    """``reduce(block)`` over chunks of the error blocks of a (C, R) uint64 array of stream seeds.

    Row j of block r is a draw of ``specs[j]`` at marginal sd ``sd`` from
    ``stream(seeds[j, r])``, and each chunk of consecutive blocks reaches
    ``reduce`` as one (k, C, n) array; the module docstring sets out how
    the chunks are cut and which threads draw them.  The results come back
    in block order, and the first chunk in that order to raise raises here.
    """
    words = pcg64_seed_words(seeds)
    count = seeds.shape[1]
    lead = max(KINDS[spec.kind].lead(spec) for spec in specs)
    rows = max(1, CHUNK_ELEMENTS // (len(specs) * n + max(0, lead - n)))
    starts = range(0, count, rows)

    def step(lo: int):
        hi = min(lo + rows, count)
        block = np.empty((hi - lo, len(specs), n))
        for j, spec in enumerate(specs):
            _fill_column(spec, sd, words[:, j, lo:hi], block[:, j])
        return reduce(block)

    workers = min(_usable_cpus(), len(starts)) if len(starts) > 1 else 1
    if workers < 2:
        return [step(lo) for lo in starts]
    from concurrent.futures import ThreadPoolExecutor  # here: it imports logging

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(step, starts))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS reports one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def generate_sequence(spec: ErrorProcessSpec, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` values of the process at unit sd from the stream of ``seed`` modulo 2^64."""
    n = as_integer(n, "n", 1)
    seed = as_integer(seed, "seed") % (1 << 64)
    return map_draws([spec], 1.0, np.array([[seed]], np.uint64), n, lambda b: b[0, 0])[0]


@dataclass(frozen=True)
class ErrorMatrixSpec:
    """Column specs for the joint error matrix plus the common variance."""

    column_specs: tuple[ErrorProcessSpec, ...]
    sigma2: float = 1.0

    def __post_init__(self):
        cols = as_tuple(self.column_specs, lambda c, _: as_spec(ErrorProcessSpec, c), "columns")
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

    def column_draws(self, seeds: np.ndarray) -> tuple[tuple, float, np.ndarray]:
        """``map_draws``'s specs, sd and (p+1, R) stream seeds for the matrices of uint64 ``seeds``.

        Column j (1-based) of the matrix for ``seeds[r]`` is drawn at sd
        sqrt(sigma2) from ``stream(column_subseed(seeds[r], j))``.
        """
        sd = float(np.sqrt(self.sigma2))
        j = np.arange(1, len(self.column_specs) + 1, dtype=np.uint64)[:, None]
        return self.column_specs, sd, column_subseed(seeds, j)

    @classmethod
    def from_dict(cls, d: dict) -> "ErrorMatrixSpec":
        d = config_object(d, "errors")
        columns = d.pop("columns", ())
        return from_keys(cls, d, "errors", column_specs=columns)


def generate_error_matrix(spec: ErrorMatrixSpec, n: int, seed: int) -> np.ndarray:
    """Draw the n x (p+1) error matrix with mutually independent columns.

    The matrix is the one block of ``map_draws`` over the ``column_draws``
    of ``seed``, a whole number taken modulo 2^64, transposed.
    """
    n = as_integer(n, "n", 1)
    seed = as_integer(seed, "seed") % (1 << 64)
    draws = spec.column_draws(np.array([seed], dtype=np.uint64))
    return np.ascontiguousarray(map_draws(*draws, n, lambda b: b[0].T)[0])
