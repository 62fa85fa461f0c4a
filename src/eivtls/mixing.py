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
identifiable from desk-scale data, so checks never look at samples.  It is
one table: ``CONDITIONS`` maps each theorem to its ``(name, condition)``
pairs in report order, where a condition is a function
``(design, column_specs) -> (passed, detail)`` written once however many
theorems list it, and ``check_assumptions`` applies them in turn.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidParams
from .linalg import as_matrix
from .model import DesignSpec
from .processes import MIXING_ALPHA, ErrorMatrixSpec

MAX_SUPPORT = 12


@dataclass(frozen=True)
class FiniteJoint:
    """Joint pmf of two finite discrete variables (rows: U, columns: V)."""

    pmf: np.ndarray

    def __post_init__(self):
        pmf = as_matrix(self.pmf)
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
        raise InvalidParams(f"support sizes {pmf.shape} exceed {MAX_SUPPORT}")
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
            "checks": [asdict(c) for c in self.checks],
        }


def _holds(detail: str):
    """A condition that every exemplar meets by construction."""
    return lambda design, specs: (True, detail)


def _declared_deltas(specs) -> list[float]:
    """Effective rate exponents: infinite for zero-beyond-range classes.

    Every phi-mixing or independent column is also alpha-mixing.
    """
    for s in specs:
        if s.mixing_class == MIXING_ALPHA and s.delta is None:
            raise InvalidParams(f"column of kind {s.kind!r} has no declared rate exponent")
    return [s.delta if s.mixing_class == MIXING_ALPHA else np.inf for s in specs]


def _number(value: float) -> str:
    return "inf" if np.isinf(value) else f"{value:g}"


def _design_bounded(design, specs):
    return True, f"{design.kind} designs have bounded entries by construction"


def _alpha_rate_envelope(design, specs):
    # An envelope n^(-1-delta) with delta <= 0 decays no faster than 1/n.
    deltas = _declared_deltas(specs)
    listed = ", ".join(map(_number, deltas))
    return min(deltas) > 0, f"declared envelopes n^(-1-delta) with delta = {listed}"


def _alpha_rate_envelope_consistency(design, specs):
    # Rate n^(-q/(2q-2)-delta) with q in (1, 2]: at q = 2 it reads
    # n^(-1-delta), which every declared envelope matches directly.
    deltas = _declared_deltas(specs)
    if min(deltas) > 0:
        return True, "declared envelopes match the q = 2 rate n^(-1-delta)"
    listed = ", ".join(map(_number, deltas))
    return False, f"requires delta > 0 in the q = 2 rate n^(-1-delta); declared delta = {listed}"


def _moments_4_plus_omega(design, specs):
    if all(s.omega is None for s in specs):
        return True, "Gaussian-driven columns: satisfied for any omega"
    return True, "declared moment surpluses: " + ", ".join(
        "any" if s.omega is None else f"{s.omega:g}" for s in specs
    )


def _rate_vs_moment_order(design, specs):
    min_delta = min(_declared_deltas(specs))
    # All exemplars are Gaussian-driven, so an undeclared surplus means
    # "finite for every omega", which bounds nothing.
    omegas = [s.omega for s in specs if s.omega is not None]
    bound = 2.0 / min(omegas) if omegas else 0.0
    detail = f"requires 2/min omega = {bound:g} < min delta = {_number(min_delta)}"
    return bound < min_delta, detail


def _phi_mixing_class(design, specs):
    non_phi = [s.kind for s in specs if s.mixing_class == MIXING_ALPHA]
    if non_phi:
        return False, f"columns of kind {non_phi} are only alpha-mixing"
    return True, "all columns are phi-mixing or independent"


def _sqrt_phi_summable(design, specs):
    if any(s.mixing_class == MIXING_ALPHA for s in specs):
        return False, "cannot certify summability for alpha-only columns"
    lag = max(s.order for s in specs)
    return True, f"phi(n) = 0 beyond lag {lag}, so the sum of sqrt(phi(n)) is finite"


_EVERY_THEOREM = (
    ("design-bounded", _design_bounded),
    ("pairwise-independent-columns", _holds("columns are generated from independent sub-streams")),
)
_PHI_MIXING = (
    ("phi-mixing-class", _phi_mixing_class),
    ("sqrt-phi-summable", _sqrt_phi_summable),
)
_MOMENTS = ("moments-4-plus-omega", _moments_4_plus_omega)

# Each theorem's conditions in report order; a condition maps
# (design, column_specs) to (passed, detail).
CONDITIONS = {
    "AN-alpha": (
        *_EVERY_THEOREM,
        ("alpha-rate-envelope", _alpha_rate_envelope),
        _MOMENTS,
        ("rate-vs-moment-order", _rate_vs_moment_order),
    ),
    "AN-phi": (*_EVERY_THEOREM, *_PHI_MIXING, _MOMENTS),
    "CON-alpha": (
        *_EVERY_THEOREM,
        ("alpha-rate-envelope-consistency", _alpha_rate_envelope_consistency),
        (
            "moments-2q",
            _holds("Gaussian-driven columns have finite moments of every order (q = 2)"),
        ),
    ),
    "CON-phi": (
        *_EVERY_THEOREM,
        *_PHI_MIXING,
        (
            "fourth-moments-summable",
            _holds("bounded fourth moments make the n^-2 weighted series finite"),
        ),
    ),
}
THEOREMS = tuple(CONDITIONS)


def theorem_conditions(theorem: str) -> tuple:
    """The ``CONDITIONS`` of ``theorem``; InvalidParams if it names no theorem."""
    if theorem not in THEOREMS:
        raise InvalidParams(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    return CONDITIONS[theorem]


def check_assumptions(
    theorem: str, design: DesignSpec, errors: ErrorMatrixSpec
) -> AssumptionReport:
    """Evaluate the selected theorem's conditions on declared metadata."""
    conditions = theorem_conditions(theorem)
    specs = errors.column_specs
    checks = tuple(
        AssumptionCheck(name, *condition(design, specs)) for name, condition in conditions
    )
    return AssumptionReport(theorem=theorem, checks=checks)
