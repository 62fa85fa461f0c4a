"""Experiment orchestration: consistency, normality, and long-run variance
experiments over a grid of sample sizes.

Replications are fully determined by (master seed, replication index, cell
index), and results are merged in replication order, so reports are
bit-identical regardless of the thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, InvalidParams, NonGeneric, NumericalError
from .estimator import ols_fit, tls_fit
from .linalg import as_vector
from .mixing import AssumptionReport, check_assumptions
from .model import DesignSpec, synthesize
from .processes import ErrorMatrixSpec
from .seeding import derive_subseed
from .stats import NormalityReport, normality_battery

__all__ = [
    "ExperimentConfig",
    "ConsistencyCell",
    "McReport",
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
        grid = tuple(int(n) for n in self.n_grid)
        object.__setattr__(self, "n_grid", grid)
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
                replications=int(d["replications"]),
                master_seed=int(d["master_seed"]),
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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "successes": self.successes,
            "nongeneric_failures": self.nongeneric_failures,
            "illconditioned_failures": self.illconditioned_failures,
            "median_beta_err": self.median_beta_err,
            "iqr_beta_err": self.iqr_beta_err,
            "median_lambda_dev": self.median_lambda_dev,
            "ols_median_beta_err": self.ols_median_beta_err,
        }


@dataclass(frozen=True)
class McReport:
    kind: str  # "consistency" | "normality" | "long-run"
    config: ExperimentConfig
    assumptions: AssumptionReport
    assumption_override: bool
    cells: tuple[ConsistencyCell, ...] = ()
    normality: NormalityReport | None = None
    normality_n: int | None = None
    mean_within_4se: bool | None = None
    deviations: np.ndarray | None = None  # R x p matrix of sqrt(n)(beta_hat - beta)
    long_run_table: tuple[tuple[int, float], ...] = ()
    long_run_direction: np.ndarray | None = None

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "config": self.config.to_dict(),
            "master_seed": self.config.master_seed,
            "assumptions": self.assumptions.to_dict(),
            "assumption_override": self.assumption_override,
        }
        if self.cells:
            out["cells"] = [c.to_dict() for c in self.cells]
        if self.normality is not None:
            out["normality"] = self.normality.to_dict()
            out["normality_n"] = self.normality_n
            out["mean_within_4se"] = self.mean_within_4se
        if self.long_run_table:
            out["long_run"] = [{"n": n, "t_beth_t": v} for n, v in self.long_run_table]
            out["long_run_direction"] = self.long_run_direction.tolist()
        return out


def _checked_assumptions(
    cfg: ExperimentConfig, override: bool
) -> tuple[AssumptionReport, bool]:
    report = check_assumptions(cfg.theorem, cfg.design, cfg.errors)
    if not report.passed and not override:
        failed = [c.name for c in report.checks if not c.passed]
        raise InvalidParams(
            f"assumption check failed ({', '.join(failed)}); "
            "pass override_assumptions=True to run anyway"
        )
    return report, override


def _replicate(cfg: ExperimentConfig, cell: int, measure, threads: int) -> list:
    """Synthesize every replication of grid cell ``cell`` and apply ``measure``.

    Returns one entry per replication, in replication order: the value of
    ``measure(instance)``, or the NonGeneric / IllConditioned it raised.
    """
    n = cfg.n_grid[cell]

    def one(rep: int):
        seed = derive_subseed(cfg.master_seed, rep, cell)
        inst = synthesize(cfg.design, cfg.beta, cfg.errors, n, seed)
        try:
            return measure(inst)
        except (NonGeneric, IllConditioned) as exc:
            return exc

    if threads <= 1:
        return [one(rep) for rep in range(cfg.replications)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, range(cfg.replications)))


def run_consistency(
    cfg: ExperimentConfig, threads: int = 1, override_assumptions: bool = False
) -> McReport:
    """Estimate on every (n, replication) cell and aggregate deviations."""
    assumptions, override = _checked_assumptions(cfg, override_assumptions)

    def measure_errors(inst):
        """(TLS sup-norm error, |lam/n - sigma2|, OLS sup-norm error)."""
        fit = tls_fit(inst.x, inst.y)
        return (
            float(np.max(np.abs(fit.beta_hat - cfg.beta))),
            abs(fit.sigma2_hat - cfg.errors.sigma2),
            float(np.max(np.abs(ols_fit(inst.x, inst.y) - cfg.beta))),
        )

    cells = []
    for ci, n in enumerate(cfg.n_grid):
        results = _replicate(cfg, ci, measure_errors, threads)
        ok = [res for res in results if not isinstance(res, Exception)]
        if not ok:
            raise NumericalError(f"every replication failed at n = {n}")
        tls_errs, lam_devs, ols_errs = zip(*ok)
        q25, q50, q75 = np.quantile(tls_errs, [0.25, 0.5, 0.75])
        cells.append(
            ConsistencyCell(
                n=n,
                successes=len(tls_errs),
                nongeneric_failures=sum(isinstance(res, NonGeneric) for res in results),
                illconditioned_failures=sum(isinstance(res, IllConditioned) for res in results),
                median_beta_err=float(q50),
                iqr_beta_err=float(q75 - q25),
                median_lambda_dev=float(np.median(lam_devs)),
                ols_median_beta_err=float(np.median(ols_errs)),
            )
        )
    return McReport(
        kind="consistency",
        config=cfg,
        assumptions=assumptions,
        assumption_override=override,
        cells=tuple(cells),
    )


def run_normality(
    cfg: ExperimentConfig, threads: int = 1, override_assumptions: bool = False
) -> McReport:
    """Collect sqrt(n)(beta_hat - beta) at the largest grid size and test it."""
    assumptions, override = _checked_assumptions(cfg, override_assumptions)
    n = cfg.n_grid[-1]
    results = _replicate(
        cfg,
        len(cfg.n_grid) - 1,
        lambda inst: np.sqrt(n) * (tls_fit(inst.x, inst.y).beta_hat - cfg.beta),
        threads,
    )
    devs = np.array([r for r in results if not isinstance(r, Exception)])
    report = normality_battery(devs)
    se = np.sqrt(np.diag(report.sample_cov) / devs.shape[0])
    mean_ok = bool(np.all(np.abs(report.sample_mean) <= 4.0 * se))
    return McReport(
        kind="normality",
        config=cfg,
        assumptions=assumptions,
        assumption_override=override,
        normality=report,
        normality_n=n,
        mean_within_4se=mean_ok,
        deviations=devs,
    )


def run_long_run_check(
    cfg: ExperimentConfig,
    t,
    threads: int = 1,
    override_assumptions: bool = False,
) -> McReport:
    """Track t' (Var of the projected Gram score / n) t across the size grid."""
    assumptions, override = _checked_assumptions(cfg, override_assumptions)
    t = as_vector(t)
    p = cfg.design.p
    if t.shape[0] != p + 1:
        raise InvalidParams(f"t must have p + 1 = {p + 1} entries")
    b = np.append(cfg.beta, -1.0)

    def score(inst):
        xy = np.column_stack([inst.x, inst.y])
        return xy.T @ (xy @ b)

    table = []
    for ci, n in enumerate(cfg.n_grid):
        scores = np.array(_replicate(cfg, ci, score, threads))
        cov = np.cov(scores, rowvar=False, ddof=1) / n
        table.append((n, float(t @ cov @ t)))
    return McReport(
        kind="long-run",
        config=cfg,
        assumptions=assumptions,
        assumption_override=override,
        long_run_table=tuple(table),
        long_run_direction=t,
    )
