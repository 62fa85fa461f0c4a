"""Every seeded experiment: consistency, normality and long-run variance
over a grid of sample sizes, and ``clt_check`` on one process's sums.

Replications are fully determined by (master seed, replication index, cell
index).  ``_replicate`` turns one grid cell into the (R, p+1, p+1) stack of
Gram matrices of ``[x, y]``: it forms ``model.signal`` once and draws the
errors through ``processes.map_draws`` (the ``processes`` docstring states
how they are drawn), and each chunk's errors get its rows added and are
reduced to their Grams by ``estimator.gram_stack``, the kernel ``tls_fit``
uses too.  Each experiment reduces the stack: consistency and normality
fit it with the batched TLS kernel ``estimator.tls_from_gram``
(consistency also takes OLS from the same Grams), and the long-run check
takes the scores ``G [beta; -1]``.  The stack is R (p+1)^2 floats, and the
seed words of the draw and the refit (``tls_from_gram`` states its
factor) take a multiple of it: ``run_normality`` at n = 250 on
``phi_p2.json`` peaks at 8.8 MB for 1.44 MB of Grams at R = 20 000, and at
44.0 MB for 7.2 MB at R = 100 000, where the seed words take 40.8 MB
while derived and the refit about 31 MB (``tracemalloc``).  The
``threads`` argument of the ``run_*`` functions is accepted and ignored.
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
from .linalg import as_integer, as_spec, as_tuple, as_vector, from_keys, to_keys
from .mixing import AssumptionReport, check_assumptions, theorem_conditions
from .model import DesignSpec, check_model, signal
from .processes import ErrorMatrixSpec, ErrorProcessSpec, map_draws
from .seeding import derive_subseed
from .stats import MIN_SAMPLES_PER_DIM, NormalityReport, ks_statistic, normality_battery

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
        object.__setattr__(self, "design", as_spec(DesignSpec, self.design))
        object.__setattr__(self, "errors", as_spec(ErrorMatrixSpec, self.errors))
        p = self.design.p
        object.__setattr__(self, "beta", check_model(p, self.beta, self.errors))
        grid = as_tuple(self.n_grid, lambda n, name: as_integer(n, name, p + 2), "n_grid")
        object.__setattr__(self, "n_grid", grid)
        object.__setattr__(self, "replications", as_integer(self.replications, "replications", 100))
        object.__setattr__(self, "master_seed", as_integer(self.master_seed, "master_seed"))
        if not grid:
            raise InvalidParams("n_grid must not be empty")
        if list(grid) != sorted(set(grid)):
            raise InvalidParams("n_grid must be strictly ascending")
        theorem_conditions(self.theorem)

    def to_dict(self) -> dict:
        return to_keys(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        return from_keys(cls, d, "config")


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
            "pass --override-assumptions (override_assumptions=True) to run anyway"
        )
    return report


def _replicate(cfg: ExperimentConfig, cell: int) -> np.ndarray:
    """(R, p+1, p+1) Gram matrices of ``[x, y]`` for every replication of grid cell ``cell``.

    ``processes.map_draws`` draws the error blocks of replications
    ``derive_subseed(master_seed, r, cell)`` a chunk at a time, and each
    chunk gets the rows of ``model.signal`` added, as ``synthesize`` does,
    and is reduced to its Grams by ``estimator.gram_stack``.  So row r is
    the Gram that ``tls_fit`` takes of ``synthesize(design, beta, errors,
    n, derive_subseed(master_seed, r, cell))``, bit for bit.
    """
    n = cfg.n_grid[cell]
    rows = signal(cfg.design, cfg.beta, n)
    seeds = derive_subseed(cfg.master_seed, np.arange(cfg.replications, dtype=np.uint64), cell)

    def grams(xy):
        xy += rows
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
    need = MIN_SAMPLES_PER_DIM * cfg.design.p
    if cfg.replications < need:
        raise InvalidParams(
            f"the normality battery needs at least {need} replications, have {cfg.replications}"
        )
    n = cfg.n_grid[-1]
    _, fits = _fit_cell(cfg, len(cfg.n_grid) - 1)
    ok = fits.status == FIT_OK
    devs = np.sqrt(n) * (fits.beta[ok] - cfg.beta)
    nongeneric, illconditioned = _failures(fits)
    if devs.shape[0] < need:
        raise NumericalError(
            f"{cfg.replications - devs.shape[0]} of {cfg.replications} fits failed at n = {n}; "
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
        with np.errstate(over="ignore", invalid="ignore"):
            scores = _replicate(cfg, ci) @ b  # [x, y]' ([x, y] b) of each replication
            cov = np.cov(scores, rowvar=False, ddof=1) / n
            value = float(t @ cov @ t)
        if not np.isfinite(value):
            raise NumericalError(f"the long-run variance overflowed at n = {n}")
        table.append((n, value))
    return LongRunReport(
        cfg, assumptions, override_assumptions, long_run_table=tuple(table), long_run_direction=t
    )


@dataclass(frozen=True)
class CltCheckConfig:
    """A ``clt-check`` config; each field is read here, ``n`` and ``replications`` from 500 up."""

    process: ErrorProcessSpec
    n: int
    replications: int
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "process", as_spec(ErrorProcessSpec, self.process))
        object.__setattr__(self, "n", as_integer(self.n, "n", 500))
        object.__setattr__(self, "replications", as_integer(self.replications, "replications", 500))
        object.__setattr__(self, "seed", as_integer(self.seed, "seed"))

    @classmethod
    def from_dict(cls, d: dict) -> "CltCheckConfig":
        return from_keys(cls, d, "clt-check config")


@dataclass(frozen=True)
class CltCheckReport:
    """Normalized partial sums across the replications of ``config``, tested against N(0, 1)."""

    config: CltCheckConfig
    s_over_sigma: np.ndarray
    ks_vs_standard_normal: tuple[float, float]
    varsigma2_estimate: float

    def to_dict(self) -> dict:
        return {
            "n": self.config.n,
            "replications": self.config.replications,
            "ks_d": self.ks_vs_standard_normal[0],
            "ks_pvalue": self.ks_vs_standard_normal[1],
            "varsigma2_estimate": self.varsigma2_estimate,
        }

    def table(self) -> tuple[list[str], list[list]]:
        """Companion CSV: one normalized partial sum per replication."""
        return ["s_over_sigma"], self.s_over_sigma[:, None].tolist()


def clt_check(
    spec: ErrorProcessSpec | dict, n: int, replications: int, seed: int
) -> CltCheckReport:
    """Check that normalized partial sums of the process look standard normal.

    The sum's standard deviation is estimated across replications (matching
    its definition as a variance of the partial sum), not by a within-series
    kernel estimate.  ``CltCheckConfig`` reads the arguments (again, for
    ``clt-check``: acceptance criterion 07 fixes this signature), and the
    report holds it.  Replication r is ``generate_sequence(spec, n,
    derive_subseed(seed, r, 0))``, drawn by ``processes.map_draws`` and
    reduced a chunk at a time to its row sums.
    """
    cfg = CltCheckConfig(spec, n, replications, seed)
    seeds = derive_subseed(cfg.seed, np.arange(cfg.replications, dtype=np.uint64), 0)
    chunks = map_draws([cfg.process], 1.0, seeds[None], cfg.n, lambda b: b[:, 0].sum(axis=1))
    sums = np.concatenate(chunks)
    var = float(np.var(sums, ddof=1))
    if not var > 0:
        raise NumericalError("partial-sum variance estimate is not positive")
    normalized = sums / np.sqrt(var)
    ks = ks_statistic(normalized)
    return CltCheckReport(
        config=cfg,
        s_over_sigma=normalized,
        ks_vs_standard_normal=ks,
        varsigma2_estimate=var / cfg.n,
    )
