"""Exact dependence coefficients for finite discrete variables, plus the
assumption checker for the consistency / normality theorems.

For two finite discrete variables the supremum defining the alpha (resp.
phi) coefficient ranges over all pairs of events, i.e. over all subsets of
the two supports.  We enumerate every subset A of the first support; for a
fixed A the optimal B consists of exactly those columns with a positive
discrepancy, so the inner supremum is closed-form and the search stays
exact while costing 2^k instead of 2^k * 2^l.  Unlike alpha, phi is not
symmetric in its two variables: ``FiniteJoint.transposed`` swaps them.

The theorem assumption checker evaluates declared process metadata (rate
exponents, moment surpluses) -- mixing rates are not statistically
identifiable from desk-scale data, so checks never look at samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, MissingMetadata, SupportTooLarge
from .model import DesignSpec
from .processes import (
    MIXING_ALPHA,
    ErrorMatrixSpec,
    ErrorProcessSpec,
)

MAX_SUPPORT = 12


@dataclass(frozen=True)
class FiniteJoint:
    """Joint pmf of two finite discrete variables (rows: U, columns: V)."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        if pmf.ndim != 2:
            raise InvalidParams("pmf must be a 2-d array")
        if np.any(pmf < 0):
            raise InvalidParams("pmf entries must be non-negative")
        if abs(pmf.sum() - 1.0) > 1e-12:
            raise InvalidParams(f"pmf mass is {pmf.sum()!r}, not 1")
        object.__setattr__(self, "pmf", pmf)

    def transposed(self) -> "FiniteJoint":
        return FiniteJoint(self.pmf.T)


def _subset_row_sums(pmf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(A n {V=j}) and P(A) for every subset A of the row support."""
    k, _ = pmf.shape
    if k > MAX_SUPPORT or pmf.shape[1] > MAX_SUPPORT:
        raise SupportTooLarge(f"support sizes {pmf.shape} exceed {MAX_SUPPORT}")
    masks = (np.arange(2**k)[:, None] >> np.arange(k)) & 1  # 2^k x k
    pa_joint = masks @ pmf
    return pa_joint, pa_joint.sum(axis=1)


def alpha_between(j: FiniteJoint) -> float:
    """Exact sup over events |P(A n B) - P(A) P(B)|; lies in [0, 1/4]."""
    pa_joint, pa = _subset_row_sums(j.pmf)
    pv = j.pmf.sum(axis=0)
    # For fixed A the column discrepancies sum to zero; the best B keeps
    # the positive ones.
    disc = pa_joint - pa[:, None] * pv[None, :]
    return float(np.max(np.clip(disc, 0.0, None).sum(axis=1)))


def phi_between(j: FiniteJoint) -> float:
    """Exact sup over events |P(B|A) - P(B)| with P(A) > 0; lies in [0, 1]."""
    pa_joint, pa = _subset_row_sums(j.pmf)
    pv = j.pmf.sum(axis=0)
    pos = pa > 0
    cond = pa_joint[pos] / pa[pos, None]
    disc = cond - pv[None, :]
    return float(np.max(np.clip(disc, 0.0, None).sum(axis=1), initial=0.0))


# -- theorem assumption checking ---------------------------------------------

THEOREM_AN_ALPHA = "AN-alpha"
THEOREM_AN_PHI = "AN-phi"
THEOREM_CON_ALPHA = "CON-alpha"
THEOREM_CON_PHI = "CON-phi"
THEOREMS = (THEOREM_AN_ALPHA, THEOREM_AN_PHI, THEOREM_CON_ALPHA, THEOREM_CON_PHI)


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    theorem: str
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _declared_delta(spec: ErrorProcessSpec) -> float:
    """Effective rate exponent: infinite for zero-beyond-range classes."""
    if spec.mixing_class != MIXING_ALPHA:
        return np.inf
    if spec.delta is None:
        raise MissingMetadata(
            f"column of kind {spec.kind!r} has no declared rate exponent"
        )
    return spec.delta


def _declared_omega(spec: ErrorProcessSpec) -> float:
    # All exemplars are Gaussian-driven, so an undeclared surplus means
    # "finite for every omega".
    return np.inf if spec.omega is None else spec.omega


def _moment_detail(specs) -> str:
    if all(s.omega is None for s in specs):
        return "Gaussian-driven columns: satisfied for any omega"
    return "declared moment surpluses: " + ", ".join(
        "any" if s.omega is None else f"{s.omega:g}" for s in specs
    )


def check_assumptions(
    theorem: str, design: DesignSpec, errors: ErrorMatrixSpec
) -> AssumptionReport:
    """Evaluate the selected theorem's conditions on declared metadata."""
    if theorem not in THEOREMS:
        raise InvalidParams(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    specs = errors.column_specs
    checks: list[AssumptionCheck] = []

    checks.append(
        AssumptionCheck(
            "design-bounded",
            True,
            f"{design.kind} designs have bounded entries by construction",
        )
    )
    checks.append(
        AssumptionCheck(
            "pairwise-independent-columns",
            True,
            "columns are generated from independent sub-streams",
        )
    )

    if theorem in (THEOREM_AN_ALPHA, THEOREM_CON_ALPHA):
        # Every phi-mixing or independent column is also alpha-mixing.
        deltas = [_declared_delta(s) for s in specs]
        min_delta = min(deltas)
        # An envelope n^(-1-delta) with delta <= 0 decays no faster than 1/n.
        decaying = min_delta > 0
        listed = ", ".join("inf" if np.isinf(d) else f"{d:g}" for d in deltas)
        if theorem == THEOREM_AN_ALPHA:
            checks.append(
                AssumptionCheck(
                    "alpha-rate-envelope",
                    decaying,
                    f"declared envelopes n^(-1-delta) with delta = {listed}",
                )
            )
            omegas = [_declared_omega(s) for s in specs]
            min_omega = min(omegas)
            checks.append(
                AssumptionCheck("moments-4-plus-omega", True, _moment_detail(specs))
            )
            bound = 2.0 / min_omega if np.isfinite(min_omega) else 0.0
            checks.append(
                AssumptionCheck(
                    "rate-vs-moment-order",
                    bound < min_delta,
                    f"requires 2/min omega = {bound:g} < min delta = "
                    + ("inf" if np.isinf(min_delta) else f"{min_delta:g}"),
                )
            )
        else:
            # Rate n^(-q/(2q-2)-delta) with q in (1, 2]: at q = 2 it reads
            # n^(-1-delta), which every declared envelope matches directly.
            checks.append(
                AssumptionCheck(
                    "alpha-rate-envelope-consistency",
                    decaying,
                    "declared envelopes match the q = 2 rate n^(-1-delta)"
                    if decaying
                    else "requires delta > 0 in the q = 2 rate n^(-1-delta); "
                    f"declared delta = {listed}",
                )
            )
            checks.append(
                AssumptionCheck(
                    "moments-2q",
                    True,
                    "Gaussian-driven columns have finite moments of every order "
                    "(q = 2)",
                )
            )
    else:
        non_phi = [s.kind for s in specs if s.mixing_class == MIXING_ALPHA]
        checks.append(
            AssumptionCheck(
                "phi-mixing-class",
                not non_phi,
                "all columns are phi-mixing or independent"
                if not non_phi
                else f"columns of kind {non_phi} are only alpha-mixing",
            )
        )
        ranges = [s.order for s in specs if s.mixing_class != MIXING_ALPHA]
        checks.append(
            AssumptionCheck(
                "sqrt-phi-summable",
                not non_phi,
                (
                    "phi(n) = 0 beyond lag "
                    + (f"{max(ranges)}" if ranges else "0")
                    + ", so the sum of sqrt(phi(n)) is finite"
                )
                if not non_phi
                else "cannot certify summability for alpha-only columns",
            )
        )
        if theorem == THEOREM_AN_PHI:
            checks.append(
                AssumptionCheck("moments-4-plus-omega", True, _moment_detail(specs))
            )
        else:
            checks.append(
                AssumptionCheck(
                    "fourth-moments-summable",
                    True,
                    "bounded fourth moments make the n^-2 weighted series finite",
                )
            )

    return AssumptionReport(theorem=theorem, checks=tuple(checks))
