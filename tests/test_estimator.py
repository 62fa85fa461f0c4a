import warnings

import numpy as np
import pytest

from eivtls.errors import IllConditioned, InvalidParams, NonGeneric, NumericalError
from eivtls.estimator import (
    CROSS_CHECK_TOL,
    EIG_GAP_RTOL,
    FIT_CROSS_CHECK,
    FIT_EIG_GAP,
    FIT_FAILURES,
    FIT_NONGENERIC,
    FIT_NOT_FINITE,
    FIT_NOT_SPD,
    FIT_OK,
    GRAM_BLOCK,
    NONGENERIC_RTOL,
    gram_stack,
    ols_fit,
    ols_from_gram,
    tls_fit,
    tls_from_gram,
)
from eivtls.model import repeating_block, synthesize
from eivtls.processes import ErrorMatrixSpec, iid_gaussian

from conftest import traced_peak

GOLDEN_X = np.array([[1.0], [2.0]])
GOLDEN_Y = np.array([2.0, 3.0])
GOLDEN_LAMBDA = 9.0 - 4.0 * np.sqrt(5.0)
GOLDEN_BETA = (1.0 + np.sqrt(5.0)) / 2.0


def random_dataset(seed, n=60, p=2, sigma2=0.5):
    errors = ErrorMatrixSpec((iid_gaussian(),) * (p + 1), sigma2=sigma2)
    block = np.vstack([np.eye(p), np.ones((1, p))])
    inst = synthesize(repeating_block(block), np.arange(1, p + 1, dtype=float), errors, n, seed)
    return inst.x, inst.y


class TestTlsFit:
    def test_noiseless_exact_relation(self):
        fit = tls_fit(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        assert fit.lam == pytest.approx(0.0, abs=1e-12)
        assert fit.beta_hat == pytest.approx([1.0], abs=1e-10)
        assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-12)

    def test_hand_derived_fixture(self):
        fit = tls_fit(GOLDEN_X, GOLDEN_Y)
        assert fit.lam == pytest.approx(GOLDEN_LAMBDA, abs=1e-9)
        assert fit.beta_hat[0] == pytest.approx(GOLDEN_BETA, abs=1e-9)
        assert fit.v[-1] == -1.0
        assert fit.beta_hat[0] == pytest.approx(-fit.v[0] / fit.v[-1], abs=1e-9)

    def test_nongeneric_degenerate_column(self):
        with pytest.raises(NonGeneric):
            tls_fit(np.array([[0.0], [0.0]]), np.array([1.0, -1.0]))

    def test_illconditioned_equal_smallest_eigenvalues(self):
        # [x, y] orthonormal makes the Gram matrix the identity
        with pytest.raises(IllConditioned):
            tls_fit(np.array([[1.0], [0.0], [0.0]]), np.array([0.0, 1.0, 0.0]))

    def test_preconditions(self):
        with pytest.raises(InvalidParams):
            tls_fit(np.array([[1.0, 2.0]]), np.array([1.0]))
        with pytest.raises(InvalidParams, match="x has 2 rows, y has 3"):
            tls_fit(GOLDEN_X, np.array([1.0, 2.0, 3.0]))

    def test_eigen_identity_on_random_fits(self):
        for seed in range(20):
            x, y = random_dataset(seed)
            fit = tls_fit(x, y)
            xy = np.column_stack([x, y])
            m = xy.T @ xy
            bvec = np.append(fit.beta_hat, -1.0)
            resid = m @ bvec - fit.lam * bvec
            assert np.max(np.abs(resid)) <= 1e-7 * (1 + np.sqrt(np.sum(m * m)))

    def test_partitioned_identities(self):
        for seed in range(10):
            x, y = random_dataset(seed, p=1)
            fit = tls_fit(x, y)
            lhs1 = x.T @ y
            rhs1 = (x.T @ x - fit.lam * np.eye(1)) @ fit.beta_hat
            assert np.max(np.abs(lhs1 - rhs1)) <= 1e-7 * (1 + np.max(np.abs(lhs1)))
            lhs2 = float(y @ y)
            rhs2 = float(y @ x @ fit.beta_hat) + fit.lam
            assert abs(lhs2 - rhs2) <= 1e-7 * (1 + abs(lhs2))

    def test_scale_equivariance(self):
        x, y = random_dataset(3)
        fit = tls_fit(x, y)
        c = 3.5
        scaled = tls_fit(c * x, c * y)
        assert scaled.beta_hat == pytest.approx(fit.beta_hat, rel=1e-9)
        assert scaled.lam == pytest.approx(c * c * fit.lam, rel=1e-9)

    def test_delta_n_definition(self):
        x, y = random_dataset(4, p=1)
        fit = tls_fit(x, y)
        expected = (x.T @ x - fit.lam * np.eye(1)) / fit.n
        assert fit.delta_n == pytest.approx(expected, rel=1e-12)


SCALES = [1e-8, 1e-4, 1.0, 1e4, 1e8]
INSIDE, OUTSIDE = 0.99, 1.01  # multiples of a guard's threshold


def gap_dataset(scale, factor):
    """[x, y] = U diag(sqrt(s)) V' with V = I and s = scale (4, 1 + g, 1).

    The columns of U are unit vectors with disjoint supports, so the Gram
    matrix is diag(s) to rounding in s and the fit is exact (beta = 0) when
    the guard lets it through.  The two smallest eigenvalues differ by
    ``factor * EIG_GAP_RTOL * ||M||_F``.
    """
    g = factor * EIG_GAP_RTOL * np.sqrt(16.0 + 1.0 + 1.0)
    s = scale * np.array([4.0, 1.0 + g, 1.0])
    xy = np.zeros((6, 3))
    xy[[0, 2, 4], [0, 1, 2]] = np.sqrt(s)
    return xy[:, :2], xy[:, 2]


def nongeneric_dataset(scale, factor, n=8, p=2):
    """[x, y] = U diag(sqrt(s)) V' whose smallest Gram eigenvector v has
    |v_last| = ``factor * NONGENERIC_RTOL * max|v|``."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=p)
    v = np.append(w / np.max(np.abs(w)), factor * NONGENERIC_RTOL)
    vmat, _ = np.linalg.qr(np.column_stack([v, rng.normal(size=(p + 1, p))]))
    u, _ = np.linalg.qr(rng.normal(size=(n, p + 1)))
    xy = u @ np.diag(np.sqrt(scale * np.array([1.0, 2.0, 3.0]))) @ vmat.T
    return xy[:, :p], xy[:, p]


EIGH = np.linalg.eigh


def shifted_eigh(factor):
    """``np.linalg.eigh`` with each smallest eigenvector moved off the closed form.

    With v normalised so that its last entry is -1, the largest-magnitude
    entry of v[:p] moves outwards by ``factor * CROSS_CHECK_TOL * (1 + max|v[:p]|)``,
    the max taken after the move.
    """

    def shifted(m):
        eigs, vecs = EIGH(m)
        v = vecs[:, :, 0] / -vecs[:, -1:, 0]
        rows = np.arange(len(v))
        j = np.argmax(np.abs(v[:, :-1]), axis=1)
        tol = factor * CROSS_CHECK_TOL
        v[rows, j] += np.sign(v[rows, j]) * tol * (1.0 + np.abs(v[rows, j])) / (1.0 - tol)
        vecs = vecs.copy()
        vecs[:, :, 0] = v
        return eigs, vecs

    return shifted


class TestGuardThresholds:
    @pytest.mark.parametrize("scale", SCALES)
    def test_eigen_gap(self, scale):
        with pytest.raises(IllConditioned, match="two smallest eigenvalues"):
            tls_fit(*gap_dataset(scale, INSIDE))
        fit = tls_fit(*gap_dataset(scale, OUTSIDE))
        assert np.array_equal(fit.beta_hat, [0.0, 0.0])
        assert fit.lam == pytest.approx(scale, rel=1e-12)

    @pytest.mark.parametrize("scale", SCALES)
    def test_nongeneric_eigenvector(self, scale):
        with pytest.raises(NonGeneric):
            tls_fit(*nongeneric_dataset(scale, INSIDE))
        # Past the guard x'x - lam I has an eigenvalue near |v_last|^2 times
        # the eigen-gap, far below rounding, so the closed form refuses.
        with pytest.raises(IllConditioned):
            tls_fit(*nongeneric_dataset(scale, OUTSIDE))

    @pytest.mark.parametrize("seed", range(3))
    def test_closed_form_cross_check(self, monkeypatch, seed):
        x, y = random_dataset(seed)
        m = joint_gram(x, y)[None]
        monkeypatch.setattr(np.linalg, "eigh", shifted_eigh(INSIDE))
        assert tls_from_gram(m).status.tolist() == [FIT_OK]
        tls_fit(x, y)
        monkeypatch.setattr(np.linalg, "eigh", shifted_eigh(OUTSIDE))
        assert tls_from_gram(m).status.tolist() == [FIT_CROSS_CHECK]
        with pytest.raises(IllConditioned, match="closed-form and eigenvector estimates disagree"):
            tls_fit(x, y)


def cholesky_dataset(scale):
    """Passes the eigen-gap and non-generic guards, but x'x - lam I has a zero pivot.

    The Gram matrix is [[1, 0, b], [0, 9, 0], [b, 0, 2]] times ``scale`` with
    b = 1e-9: its smallest eigenvalue 1 - b^2 rounds to 1, so the first pivot
    of x'x - lam I is exactly 0, while |v_last| is about b.
    """
    x = np.sqrt(scale) * np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 3.0]])
    y = np.sqrt(scale) * np.array([1e-9, np.sqrt(2.0), 0.0])
    return x, y


def joint_gram(x, y):
    """The Gram matrix of ``[x, y]`` by the kernel ``tls_fit`` uses."""
    return gram_stack(np.vstack([x.T, y])[None])[0]


class TestGramStack:
    @pytest.mark.parametrize("n", [1, 250, GRAM_BLOCK, GRAM_BLOCK + 1, 9000])
    def test_matches_matmul(self, n):
        xy = np.random.default_rng(n).standard_normal((5, 3, n))
        np.testing.assert_allclose(gram_stack(xy), xy @ xy.mT, rtol=1e-12, atol=1e-12 * n)

    @pytest.mark.parametrize("n", [2000, 9000, 16000])
    def test_gram_depends_on_its_own_rows_alone(self, n):
        # Plain einsum sums a row of more than 8192 columns differently in a
        # one-matrix stack, and a strided (F-ordered) row differently again.
        xy = np.random.default_rng(n).standard_normal((5, 4, n))
        whole = gram_stack(xy)
        for r in range(5):
            assert np.array_equal(gram_stack(xy[r : r + 1]), whole[r : r + 1])
            assert np.array_equal(gram_stack(np.asfortranarray(xy[r])[None]), whole[r : r + 1])
        assert np.array_equal(np.concatenate([gram_stack(xy[:2]), gram_stack(xy[2:])]), whole)

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("n", [3, GRAM_BLOCK, GRAM_BLOCK + 1, 3 * GRAM_BLOCK + 1])
    def test_gram_is_exactly_symmetric(self, c, n):
        # The TLS kernel reads only the lower triangle of each Gram.
        xy = np.random.default_rng(n + c).standard_normal((6, c, n))
        for stack in (xy, np.asfortranarray(xy)):
            m = gram_stack(stack)
            assert np.array_equal(m, m.mT)

    def test_overflow_is_left_to_the_fit_without_a_warning(self):
        # Each block's sums overflow: y'y to inf, x'y to -inf in the first
        # block and to inf in the others, so that adding the blocks gives NaN.
        xy = np.full((1, 2, 3 * GRAM_BLOCK), 1e200)
        xy[0, 1, :GRAM_BLOCK] *= -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = gram_stack(xy)
        assert not np.any(np.isfinite(m))
        assert tls_from_gram(m).status.tolist() == [FIT_NOT_FINITE]


class TestTlsFromGram:
    def datasets(self):
        out = [random_dataset(seed) for seed in range(6)]
        for scale in SCALES:
            for factor in (INSIDE, OUTSIDE):
                out += [gap_dataset(scale, factor), nongeneric_dataset(scale, factor)]
            out.append(cholesky_dataset(scale))
        return out

    def test_rows_match_tls_fit(self):
        data = self.datasets()
        fits = tls_from_gram(np.stack([joint_gram(x, y) for x, y in data]))
        assert np.count_nonzero(fits.status == FIT_NOT_SPD) >= len(SCALES)
        for (x, y), beta, lam, status in zip(data, fits.beta, fits.lam, fits.status):
            if status == FIT_OK:
                fit = tls_fit(x, y)
                np.testing.assert_allclose(beta, fit.beta_hat, rtol=1e-12, atol=0)
                assert lam == fit.lam
            else:
                error, message = FIT_FAILURES[status]
                with pytest.raises(error) as raised:
                    tls_fit(x, y)
                assert type(raised.value) is error
                assert str(raised.value) == message
                assert np.all(np.isnan(beta))

    @pytest.mark.parametrize("scale", SCALES)
    def test_cholesky_failure_does_not_poison_the_chunk(self, scale):
        good = [random_dataset(seed) for seed in range(3)]
        stack = [joint_gram(*d) for d in good]
        stack.insert(1, joint_gram(*cholesky_dataset(scale)))
        fits = tls_from_gram(np.stack(stack))
        assert fits.status.tolist() == [FIT_OK, FIT_NOT_SPD, FIT_OK, FIT_OK]
        with pytest.raises(IllConditioned, match="not positive definite"):
            tls_fit(*cholesky_dataset(scale))
        for beta, d in zip(fits.beta[[0, 2, 3]], good):
            np.testing.assert_allclose(beta, tls_fit(*d).beta_hat, rtol=1e-12, atol=0)

    def test_closed_forms_match_lapack_solves(self):
        data = [random_dataset(seed) for seed in range(5)]
        grams = np.stack([joint_gram(x, y) for x, y in data])
        fits = tls_from_gram(grams)
        ols = ols_from_gram(grams)
        for g, beta, lam, beta_ols, (x, y) in zip(grams, fits.beta, fits.lam, ols, data):
            shifted = g[:2, :2] - lam * np.eye(2)
            np.testing.assert_allclose(beta, np.linalg.solve(shifted, g[:2, 2]), rtol=1e-12)
            np.testing.assert_allclose(beta_ols, np.linalg.solve(g[:2, :2], g[:2, 2]), rtol=1e-12)
            np.testing.assert_allclose(beta_ols, ols_fit(x, y), rtol=1e-12, atol=0)

    def test_non_finite_row_does_not_poison_the_stack(self):
        finite = joint_gram(*random_dataset(0))
        alone = tls_from_gram(finite[None])
        for bad in (np.full((3, 3), np.inf), np.where(np.eye(3) > 0, np.nan, finite)):
            fits = tls_from_gram(np.stack([bad, finite]))
            assert fits.status.tolist() == [FIT_NOT_FINITE, FIT_OK]
            assert np.all(np.isnan(fits.beta[0])) and np.all(np.isnan(fits.v[0]))
            assert np.isnan(fits.lam[0])
            assert np.array_equal(fits.beta[1:], alone.beta)
            assert np.array_equal(fits.lam[1:], alone.lam)
            assert np.array_equal(fits.v[1:], alone.v)
        # Finite data whose Gram matrix overflows.
        with np.errstate(over="ignore"), pytest.raises(IllConditioned, match="non-finite"):
            tls_fit(1e200 * GOLDEN_X, 1e200 * GOLDEN_Y)

    def test_refused_rows_get_nan_estimates(self):
        fixtures = {
            FIT_EIG_GAP: joint_gram(*gap_dataset(1.0, INSIDE)),
            FIT_NONGENERIC: np.zeros((3, 3)),
            FIT_NOT_SPD: joint_gram(*cholesky_dataset(1.0)),
            FIT_NOT_FINITE: np.full((3, 3), np.inf),
        }
        fits = tls_from_gram(np.stack([*fixtures.values(), joint_gram(*random_dataset(0))]))
        assert fits.status.tolist() == [*fixtures, FIT_OK]
        assert np.all(np.isnan(fits.beta[:-1])) and np.all(np.isnan(fits.v[:-1]))
        assert np.all(np.isfinite(fits.beta[-1])) and np.all(np.isfinite(fits.v[-1]))
        assert np.isnan(fits.lam).tolist() == [False, False, False, True, False]

    def test_reads_the_lower_triangle(self):
        finite = np.stack([joint_gram(x, y) for x, y in self.datasets()])
        random = [np.stack([joint_gram(*random_dataset(s, p=p)) for s in range(40)]) for p in (1, 3)]
        for stack in [finite, *random]:
            whole = tls_from_gram(stack)
            lower = tls_from_gram(np.tril(stack))
            for name, value in zip(whole._fields, whole):
                assert np.array_equal(getattr(lower, name), value, equal_nan=True), name

    def test_near_limit_gram_is_fitted(self):
        # Entries near the float limit: no step of the fit may overflow.
        m = np.array([[[1e308, 4e307], [4e307, 3e307]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = tls_from_gram(m)
        assert fits.status.tolist() == [FIT_OK]
        np.testing.assert_allclose(fits.beta, tls_from_gram(1e-300 * m).beta, rtol=1e-12, atol=0)

    def test_any_split_of_a_stack_refits_bit_for_bit(self):
        # Each row's fit depends on that row alone, so a stack refitted in
        # pieces, as the bootstrap refits its chunks, matches the whole.
        finite = [joint_gram(x, y) for x, y in self.datasets()]
        bad = [np.full((3, 3), np.inf), np.where(np.eye(3) > 0, np.nan, finite[0])]
        rng = np.random.default_rng(0)
        guarded = np.stack(finite + bad)[rng.permutation(len(finite) + 2)]
        statuses = set(tls_from_gram(guarded).status.tolist())
        assert {FIT_OK, FIT_EIG_GAP, FIT_NONGENERIC, FIT_NOT_SPD, FIT_NOT_FINITE} <= statuses
        random = [np.stack([joint_gram(*random_dataset(s, p=p)) for s in range(40)]) for p in (1, 3)]
        for stack in [guarded, *random]:
            whole = tls_from_gram(stack)
            rows = np.arange(1, len(stack))
            for cuts in [rows, *(np.sort(rng.choice(rows, size=k, replace=False)) for k in (1, 2, 5))]:
                parts = [tls_from_gram(part) for part in np.split(stack, cuts)]
                for name, value in zip(whole._fields, whole):
                    joined = np.concatenate([getattr(part, name) for part in parts])
                    assert np.array_equal(joined, value, equal_nan=True), (name, cuts)

    def test_refit_works_in_one_copy_of_the_stack(self):
        # The kernel's own copy of the stack, eigh's eigenvectors, the
        # Cholesky factor and the results: under 5 times the stack's bytes.
        rng = np.random.default_rng(0)
        a = rng.standard_normal((20_000, 30, 3))
        stack = np.einsum("rni,rnj->rij", a, a)
        tls_from_gram(stack[:3])
        _, peak = traced_peak(tls_from_gram, stack)
        assert peak <= 5 * stack.nbytes


class TestOls:
    def test_noiseless_recovers_beta(self):
        z = np.arange(1.0, 11.0)[:, None]
        beta = np.array([2.5])
        fit = ols_fit(z, z @ beta)
        assert fit == pytest.approx(beta, abs=1e-10)

    def test_hand_fixture(self):
        assert ols_fit(GOLDEN_X, GOLDEN_Y) == pytest.approx([1.6], abs=1e-12)

    def test_not_positive_definite(self):
        with pytest.raises(NumericalError, match="x.T x is not positive definite in 1 fits"):
            ols_fit(np.zeros((3, 1)), np.ones(3))

    def test_attenuation_vs_tls(self):
        # univariate EIV with limit design value 1, sigma2 = 1, beta = 1:
        # OLS drifts to beta/2 while TLS stays consistent
        errors = ErrorMatrixSpec((iid_gaussian(), iid_gaussian()), sigma2=1.0)
        inst = synthesize(repeating_block([[1.0], [-1.0]]), [1.0], errors, 20_000, 101)
        ols = ols_fit(inst.x, inst.y)
        tls = tls_fit(inst.x, inst.y)
        assert abs(ols[0] - 0.5) < 0.1
        assert abs(tls.beta_hat[0] - 1.0) < 0.1


def orthogonal_distance(x, y, beta):
    """Root sum of squared row distances to the hyperplane {(u, v): u @ beta = v}."""
    beta = np.asarray(beta, dtype=float)
    return float(np.linalg.norm(x @ beta - y) / np.sqrt(1.0 + beta @ beta))


class TestOrthogonalResidual:
    """TLS minimises the orthogonal distance; the minimum is sqrt(lambda)."""

    def test_noiseless_zero(self):
        z = np.arange(1.0, 9.0)[:, None]
        fit = tls_fit(z, 3.0 * z[:, 0])
        assert fit.beta_hat[0] == pytest.approx(3.0)
        assert orthogonal_distance(z, 3.0 * z[:, 0], fit.beta_hat) == pytest.approx(0.0, abs=1e-6)

    def test_equals_sqrt_lambda_at_tls_estimate(self):
        fit = tls_fit(GOLDEN_X, GOLDEN_Y)
        norm = orthogonal_distance(GOLDEN_X, GOLDEN_Y, fit.beta_hat)
        assert norm == pytest.approx(np.sqrt(GOLDEN_LAMBDA), rel=1e-7)
        for seed in range(5):
            x, y = random_dataset(seed)
            fit = tls_fit(x, y)
            norm = orthogonal_distance(x, y, fit.beta_hat)
            assert norm == pytest.approx(np.sqrt(fit.lam), rel=1e-7)

    def test_minimality_by_grid_search(self):
        x, y = random_dataset(9, p=1)
        fit = tls_fit(x, y)
        best = np.sqrt(fit.lam)
        for b in np.linspace(fit.beta_hat[0] - 2.0, fit.beta_hat[0] + 2.0, 401):
            assert orthogonal_distance(x, y, [b]) >= best - 1e-9
