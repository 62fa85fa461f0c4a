import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivtls.errors import InvalidParams, MissingMetadata, SupportTooLarge
from eivtls.mixing import (
    FiniteJoint,
    alpha_between,
    check_assumptions,
    phi_between,
)
from eivtls.presets import default_design, default_errors
from eivtls.processes import ErrorMatrixSpec, ar1


def naive_alpha(pmf):
    """Literal double enumeration over all event pairs."""
    k, l = pmf.shape
    best = 0.0
    for am in itertools.product([0, 1], repeat=k):
        for bm in itertools.product([0, 1], repeat=l):
            rows = [i for i in range(k) if am[i]]
            cols = [j for j in range(l) if bm[j]]
            pab = pmf[np.ix_(rows, cols)].sum() if rows and cols else 0.0
            pa = pmf[rows].sum() if rows else 0.0
            pb = pmf[:, cols].sum() if cols else 0.0
            best = max(best, abs(pab - pa * pb))
    return best


def naive_phi(pmf):
    k, l = pmf.shape
    best = 0.0
    for am in itertools.product([0, 1], repeat=k):
        rows = [i for i in range(k) if am[i]]
        pa = pmf[rows].sum() if rows else 0.0
        if pa <= 0:
            continue
        for bm in itertools.product([0, 1], repeat=l):
            cols = [j for j in range(l) if bm[j]]
            pab = pmf[np.ix_(rows, cols)].sum() if rows and cols else 0.0
            pb = pmf[:, cols].sum() if cols else 0.0
            best = max(best, abs(pab / pa - pb))
    return best


def random_joint(seed, k=3, l=3):
    rng = np.random.default_rng(seed)
    pmf = rng.random((k, l))
    return FiniteJoint(pmf / pmf.sum())


class TestFiniteJoint:
    def test_mass_must_be_one(self):
        with pytest.raises(InvalidParams):
            FiniteJoint(np.full((2, 2), 0.3))

    def test_negative_rejected(self):
        with pytest.raises(InvalidParams):
            FiniteJoint(np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_support_cap(self):
        pmf = np.full((13, 2), 1.0 / 26)
        with pytest.raises(SupportTooLarge):
            alpha_between(FiniteJoint(pmf))


class TestAlphaBetween:
    def test_independent_product(self):
        pu = np.array([0.2, 0.8])
        pv = np.array([0.5, 0.3, 0.2])
        assert alpha_between(FiniteJoint(np.outer(pu, pv))) == pytest.approx(0.0, abs=1e-15)

    def test_perfectly_dependent_fair_bernoulli(self):
        assert alpha_between(FiniteJoint(np.diag([0.5, 0.5]))) == pytest.approx(0.25)

    def test_dependent_bernoulli_p(self):
        p = 0.3
        assert alpha_between(FiniteJoint(np.diag([1 - p, p]))) == pytest.approx(p * (1 - p))

    def test_matches_naive_enumeration(self):
        for seed in range(25):
            j = random_joint(seed)
            assert alpha_between(j) == pytest.approx(naive_alpha(j.pmf), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_bound_and_transpose_symmetry(self, seed):
        j = random_joint(seed, k=4, l=3)
        a = alpha_between(j)
        assert 0.0 <= a <= 0.25 + 1e-12
        assert a == pytest.approx(alpha_between(j.transposed()), abs=1e-12)


class TestPhiBetween:
    def test_independent(self):
        pu = np.array([0.4, 0.6])
        pv = np.array([0.1, 0.9])
        assert phi_between(FiniteJoint(np.outer(pu, pv))) == pytest.approx(0.0, abs=1e-15)

    def test_perfectly_dependent_fair_bernoulli(self):
        assert phi_between(FiniteJoint(np.diag([0.5, 0.5]))) == pytest.approx(0.5)

    def test_matches_naive_enumeration(self):
        for seed in range(25):
            j = random_joint(seed)
            assert phi_between(j) == pytest.approx(naive_phi(j.pmf), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_alpha_dominated_by_phi(self, seed):
        j = random_joint(seed, k=3, l=4)
        assert alpha_between(j) <= phi_between(j) + 1e-12
        assert phi_between(j) <= 1.0 + 1e-12

    def test_asymmetry_witness_exists(self):
        # Unlike alpha, phi is not symmetric: this 2x3 joint has
        # phi(U; V) = 1/4 but phi(V; U) = 1/2.
        j = FiniteJoint(np.array([[0.0, 0.25, 0.25], [0.25, 0.125, 0.125]]))
        fwd, rev = phi_between(j), phi_between(j.transposed())
        assert fwd == pytest.approx(0.25, abs=1e-15)
        assert rev == pytest.approx(0.5, abs=1e-15)
        # confirm with the literal enumeration in both orientations
        assert fwd == pytest.approx(naive_phi(j.pmf), abs=1e-12)
        assert rev == pytest.approx(naive_phi(j.pmf.T), abs=1e-12)


class TestCheckAssumptions:
    def test_an_alpha_pass_fixture(self):
        errors = ErrorMatrixSpec((ar1(0.5, delta=3.0, omega=1.0),) * 2, sigma2=1.0)
        report = check_assumptions("AN-alpha", default_design(1), errors)
        assert report.passed
        names = [c.name for c in report.checks]
        assert names.count("rate-vs-moment-order") == 1

    def test_an_alpha_fail_on_rate_vs_moment(self):
        errors = ErrorMatrixSpec((ar1(0.5, delta=1.0, omega=1.0),) * 2, sigma2=1.0)
        report = check_assumptions("AN-alpha", default_design(1), errors)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert failing == {"rate-vs-moment-order"}

    def test_an_phi_pass_for_q_dependent_columns(self):
        report = check_assumptions("AN-phi", default_design(2), default_errors("phi", 2))
        assert report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["sqrt-phi-summable"].passed

    def test_an_phi_fails_for_alpha_only_columns(self):
        report = check_assumptions("AN-phi", default_design(1), default_errors("alpha", 1))
        assert not report.passed

    @pytest.mark.parametrize("delta", [0.0, -2.0])
    def test_alpha_envelope_must_decay(self, delta):
        # delta <= 0: the envelope n^(-1-delta) decays no faster than 1/n.
        errors = ErrorMatrixSpec((ar1(0.5, delta=3.0), ar1(0.5, delta=delta)), sigma2=1.0)
        con = check_assumptions("CON-alpha", default_design(1), errors)
        assert {c.name for c in con.checks if not c.passed} == {"alpha-rate-envelope-consistency"}
        an = check_assumptions("AN-alpha", default_design(1), errors)
        assert {c.name for c in an.checks if not c.passed} == {
            "alpha-rate-envelope",
            "rate-vs-moment-order",
        }

    def test_con_variants_pass_on_defaults(self):
        assert check_assumptions("CON-alpha", default_design(1), default_errors("alpha", 1)).passed
        assert check_assumptions("CON-phi", default_design(1), default_errors("phi", 1)).passed

    def test_missing_rate_metadata(self):
        errors = ErrorMatrixSpec((ar1(0.5),) * 2, sigma2=1.0)
        with pytest.raises(MissingMetadata):
            check_assumptions("AN-alpha", default_design(1), errors)

    def test_unknown_theorem(self):
        with pytest.raises(InvalidParams):
            check_assumptions("AN-rho", default_design(1), default_errors("alpha", 1))
