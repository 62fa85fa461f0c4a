"""Experiment orchestration: consistency, normality, and long-run variance
experiments over a grid of sample sizes.

Replications are fully determined by (master seed, replication index, cell
index).  ``_replicate`` turns one grid cell into the (R, p+1, p+1) stack of
Gram matrices of ``[x, y]``: it builds the design part once and draws the
errors through ``processes.map_draws``, which hands chunks of replications
to a thread pool of at most one thread per CPU the process may run on (its
CPU affinity); each chunk's errors get the signal added and are reduced to
their Grams at once by ``estimator.gram_stack``, the kernel ``tls_fit``
uses too.  It is one ``einsum`` loop over the whole chunk, where ``@`` would
hand BLAS one small product per replication at 1.2 to 2.4 times the cost
for p of 1 or 2, and it sums each row in contiguous blocks of columns, so a
Gram does not depend on the chunk or the thread that holds it.
``map_draws`` holds the raw data in flight across all threads to one fixed
budget of floats, so memory stays at about R (p+1)^2 floats plus that
budget.  Each experiment reduces the stack: consistency and normality fit it
with the batched TLS kernel ``estimator.tls_from_gram`` (consistency also
takes OLS from the same Grams), and the long-run check takes the scores
``G [beta; -1]``.  Every Gram depends only on its own replication's streams,
so reports are bit-identical for any number of CPUs and any value of the
``threads`` argument of the ``run_*`` functions, which is accepted and
ignored.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import InvalidParams, NumericalError
from .estimator import (
    FIT_NONGENERIC,
    FIT_OK,
    GramFits,
    gram_stack,
    ols_from_gram,
    tls_from_gram,
)
from .linalg import as_integer, as_vector
from .mixing import AssumptionReport, check_assumptions
from .model import DesignSpec, build_design
from .processes import ErrorMatrixSpec, map_draws
from .seeding import derive_subseed
from .stats import MIN_SAMPLES_PER_DIM, NormalityReport, normality_battery

__all__ = [
    "ExperimentConfig",
    "ConsistencyCell",
    "ExperimentReport",
    "ConsistencyReport",
    "NormalityExperimentReport",
    "LongRunReport",
    "run_consistency",
    "run_normality",
    "run_long_run_check",
    "derive_subseed",
]


@dataclass(frozen=True)
class ExperimentConfig:
    design: DesignSpec
    beta: np.ndarray
    errors: ErrorMatrixSpec
    n_grid: tuple[int, ...]
    replications: int
    master_seed: int
    theorem: str = "AN-alpha"

    def __post_init__(self):
        beta = as_vector(self.beta)
        object.__setattr__(self, "beta", beta)
        grid = tuple(as_integer(n, "every n_grid entry") for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
        for name in ("replications", "master_seed"):
            object.__setattr__(self, name, as_integer(getattr(self, name), name))
        if not grid:
            raise InvalidParams("n_grid must not be empty")
        if list(grid) != sorted(set(grid)):
            raise InvalidParams("n_grid must be strictly ascending")
        if self.replications < 100:
            raise InvalidParams("need at least 100 replications")
        p = self.design.p
        if beta.shape[0] != p:
            raise InvalidParams(f"beta must have p = {p} entries")
        if self.errors.p != p:
            raise InvalidParams(f"error spec must have p + 1 = {p + 1} columns")
        if grid[0] < p + 2:
            raise InvalidParams(f"every n must be at least p + 2 = {p + 2}")

    def to_dict(self) -> dict:
        return {
            "design": self.design.to_dict(),
            "beta": self.beta.tolist(),
            "errors": self.errors.to_dict(),
            "n_grid": list(self.n_grid),
            "replications": self.replications,
            "master_seed": self.master_seed,
            "theorem": self.theorem,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        try:
            return cls(
                design=DesignSpec.from_dict(d["design"]),
                beta=np.asarray(d["beta"], dtype=float),
                errors=ErrorMatrixSpec.from_dict(d["errors"]),
                n_grid=tuple(d["n_grid"]),
                replications=d["replications"],
                master_seed=d["master_seed"],
                theorem=d.get("theorem", "AN-alpha"),
            )
        except KeyError as exc:
            raise InvalidParams(f"config is missing required key {exc}") from None
        except (TypeError, ValueError, AttributeError) as exc:
            raise InvalidParams(f"malformed config: {exc}") from None


@dataclass(frozen=True)
class ConsistencyCell:
    """Aggregates for one sample size of a consistency experiment."""

    n: int
    successes: int
    nongeneric_failures: int
    illconditioned_failures: int
    median_beta_err: float  # median sup-norm deviation of the TLS estimate
    iqr_beta_err: float
    median_lambda_dev: float  # median |lam/n - sigma2|
    ols_median_beta_err: float


@dataclass(frozen=True)
class ExperimentReport:
    """What every experiment report states: the config and the assumption verdict."""

    kind: ClassVar[str]
    config: ExperimentConfig
    assumptions: AssumptionReport
    assumption_override: bool

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config.to_dict(),
            "master_seed": self.config.master_seed,
            "assumptions": self.assumptions.to_dict(),
            "assumption_override": self.assumption_override,
        }


@dataclass(frozen=True)
class ConsistencyReport(ExperimentReport):
    kind: ClassVar[str] = "consistency"
    cells: tuple[ConsistencyCell, ...]

    def to_dict(self) -> dict:
        return {**super().to_dict(), "cells": [asdict(c) for c in self.cells]}

    def table(self) -> tuple[list[str], list[list]]:
        """Companion CSV: one row of cell aggregates per sample size."""
        return [f.name for f in fields(ConsistencyCell)], [list(astuple(c)) for c in self.cells]


@dataclass(frozen=True)
class NormalityExperimentReport(ExperimentReport):
    kind: ClassVar[str] = "normality"
    normality: NormalityReport
    normality_n: int
    mean_within_4se: bool
    nongeneric_failures: int
    illconditioned_failures: int
    deviations: np.ndarray  # R x p matrix of sqrt(n)(beta_hat - beta)

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "normality": self.normality.to_dict(),
            "normality_n": self.normality_n,
            "mean_within_4se": self.mean_within_4se,
            "nongeneric_failures": self.nongeneric_failures,
            "illconditioned_failures": self.illconditioned_failures,
        }

    def table(self) -> tuple[list[str], list[list]]:
        """Companion CSV: one row of deviations per successful replication."""
        header = [f"dev{j + 1}" for j in range(self.config.design.p)]
        return header, self.deviations.tolist()


@dataclass(frozen=True)
class LongRunReport(ExperimentReport):
    kind: ClassVar[str] = "long-run"
    long_run_table: tuple[tuple[int, float], ...]
    long_run_direction: np.ndarray

    def to_dict(self) -> dict:
        return {
            **super().to_dict(),
            "long_run": [{"n": n, "t_beth_t": v} for n, v in self.long_run_table],
            "long_run_direction": self.long_run_direction.tolist(),
        }


def _checked_assumptions(cfg: ExperimentConfig, override: bool) -> AssumptionReport:
    report = check_assumptions(cfg.theorem, cfg.design, cfg.errors)
    if not report.passed and not override:
        failed = [c.name for c in report.checks if not c.passed]
        raise InvalidParams(
            f"assumption check failed ({', '.join(failed)}); "
            "pass override_assumptions=True to run anyway"
        )
    return report


def _replicate(cfg: ExperimentConfig, cell: int) -> np.ndarray:
    """(R, p+1, p+1) Gram matrices of ``[x, y]`` for every replication of grid cell ``cell``.

    The design part ``[z, z beta]`` is built once; ``processes.map_draws``
    draws the error blocks of replications ``derive_subseed(master_seed, r,
    cell)`` a chunk at a time, and each chunk gets the signal added and is
    reduced to its Grams by ``estimator.gram_stack``.  So row r equals the
    Gram that ``tls_fit`` takes of ``synthesize(design, beta, errors, n,
    derive_subseed(master_seed, r, cell))``, bit for bit.
    """
    n = cfg.n_grid[cell]
    z, _ = build_design(cfg.design, n)
    signal = np.vstack([z.T, z @ cfg.beta])
    seeds = derive_subseed(cfg.master_seed, np.arange(cfg.replications, dtype=np.uint64), cell)

    def grams(xy):
        xy += signal
        return gram_stack(xy)

    return np.concatenate(map_draws(*cfg.errors.column_draws(seeds), n, grams))


def _fit_cell(cfg: ExperimentConfig, cell: int) -> tuple[np.ndarray, GramFits]:
    """Gram stack and TLS fits of grid cell ``cell``; NumericalError if every fit failed."""
    grams = _replicate(cfg, cell)
    fits = tls_from_gram(grams)
    if not np.any(fits.status == FIT_OK):
        raise NumericalError(f"every replication failed at n = {cfg.n_grid[cell]}")
    return grams, fits


def _failures(fits: GramFits) -> tuple[int, int]:
    """(non-generic, ill-conditioned) failed fits; every other guard counts as ill-conditioned."""
    nongeneric = int(np.count_nonzero(fits.status == FIT_NONGENERIC))
    return nongeneric, int(np.count_nonzero(fits.status != FIT_OK)) - nongeneric


def run_consistency(
    cfg: ExperimentConfig, threads: int = 1, override_assumptions: bool = False
) -> ConsistencyReport:
    """Estimate on every (n, replication) cell and aggregate deviations."""
    assumptions = _checked_assumptions(cfg, override_assumptions)
    cells = []
    for ci, n in enumerate(cfg.n_grid):
        grams, fits = _fit_cell(cfg, ci)
        ok = fits.status == FIT_OK
        # Sup-norm errors of TLS and OLS, and |lam/n - sigma2|.
        tls_errs = np.max(np.abs(fits.beta[ok] - cfg.beta), axis=1)
        ols_errs = np.max(np.abs(ols_from_gram(grams[ok]) - cfg.beta), axis=1)
        lam_devs = np.abs(fits.lam[ok] / n - cfg.errors.sigma2)
        nongeneric, illconditioned = _failures(fits)
        q25, q50, q75 = np.quantile(tls_errs, [0.25, 0.5, 0.75])
        cells.append(
            ConsistencyCell(
                n=n,
                successes=len(tls_errs),
                nongeneric_failures=nongeneric,
                illconditioned_failures=illconditioned,
                median_beta_err=float(q50),
                iqr_beta_err=float(q75 - q25),
                median_lambda_dev=float(np.median(lam_devs)),
                ols_median_beta_err=float(np.median(ols_errs)),
            )
        )
    return ConsistencyReport(cfg, assumptions, override_assumptions, cells=tuple(cells))


def run_normality(
    cfg: ExperimentConfig, threads: int = 1, override_assumptions: bool = False
) -> NormalityExperimentReport:
    """Collect sqrt(n)(beta_hat - beta) at the largest grid size and test it."""
    assumptions = _checked_assumptions(cfg, override_assumptions)
    n = cfg.n_grid[-1]
    _, fits = _fit_cell(cfg, len(cfg.n_grid) - 1)
    ok = fits.status == FIT_OK
    devs = np.sqrt(n) * (fits.beta[ok] - cfg.beta)
    nongeneric, illconditioned = _failures(fits)
    failed = nongeneric + illconditioned
    need = MIN_SAMPLES_PER_DIM * cfg.design.p
    if failed and devs.shape[0] < need:
        raise NumericalError(
            f"{failed} of {cfg.replications} fits failed at n = {n}; "
            f"the normality battery needs at least {need} estimates"
        )
    report = normality_battery(devs)
    se = np.sqrt(np.diag(report.sample_cov) / devs.shape[0])
    mean_ok = bool(np.all(np.abs(report.sample_mean) <= 4.0 * se))
    return NormalityExperimentReport(
        cfg,
        assumptions,
        override_assumptions,
        normality=report,
        normality_n=n,
        mean_within_4se=mean_ok,
        nongeneric_failures=nongeneric,
        illconditioned_failures=illconditioned,
        deviations=devs,
    )


def run_long_run_check(
    cfg: ExperimentConfig,
    t,
    threads: int = 1,
    override_assumptions: bool = False,
) -> LongRunReport:
    """Track t' (Var of the projected Gram score / n) t across the size grid."""
    assumptions = _checked_assumptions(cfg, override_assumptions)
    t = as_vector(t)
    p = cfg.design.p
    if t.shape[0] != p + 1:
        raise InvalidParams(f"t must have p + 1 = {p + 1} entries")
    b = np.append(cfg.beta, -1.0)
    table = []
    for ci, n in enumerate(cfg.n_grid):
        scores = _replicate(cfg, ci) @ b  # [x, y]' ([x, y] b) of each replication
        cov = np.cov(scores, rowvar=False, ddof=1) / n
        table.append((n, float(t @ cov @ t)))
    return LongRunReport(
        cfg, assumptions, override_assumptions, long_run_table=tuple(table), long_run_direction=t
    )
