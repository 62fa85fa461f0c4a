import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eivtls.errors import (
    DimensionMismatch,
    InvalidParams,
    NotPositiveDefinite,
    NotSymmetric,
)
from eivtls.linalg import (
    as_matrix,
    as_vector,
    frobenius_norm,
    solve_spd,
    sym_eig,
)


def random_symmetric(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    return 0.5 * (a + a.T)


class TestValidators:
    def test_rejects_nan(self):
        with pytest.raises(InvalidParams):
            as_matrix([[1.0, np.nan]])
        with pytest.raises(InvalidParams):
            as_vector([np.inf])

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidParams):
            as_matrix([1.0, 2.0])
        with pytest.raises(InvalidParams):
            as_vector([[1.0]])


class TestFrobenius:
    def test_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_small_fixture(self):
        assert frobenius_norm([[1, 2], [3, 4]]) == pytest.approx(np.sqrt(30), abs=1e-12)

    def test_matches_trace_oracle(self):
        # oracle: sqrt(trace(a.T a)) computed entry by entry
        for seed in range(5):
            a = np.random.default_rng(seed).normal(size=(4, 3))
            trace = sum(sum(a[i, j] * a[i, j] for i in range(4)) for j in range(3))
            assert frobenius_norm(a) == pytest.approx(np.sqrt(trace), rel=1e-12)

    def test_squared_equals_gram_eigenvalue_sum(self):
        for seed in range(5):
            a = np.random.default_rng(seed).normal(size=(5, 4))
            eig = sym_eig(a.T @ a)
            assert frobenius_norm(a) ** 2 == pytest.approx(
                float(np.sum(eig.eigenvalues)), rel=1e-9
            )


class TestMatmulSolve:
    def test_solve_diagonal(self):
        x = solve_spd([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
        assert x == pytest.approx([1.0, 2.0], abs=1e-12)

    def test_solve_cramer_fixture(self):
        x = solve_spd([[4.0, 1.0], [1.0, 3.0]], [1.0, 2.0])
        assert x == pytest.approx([1.0 / 11.0, 7.0 / 11.0], abs=1e-12)

    def test_solve_residual_bound(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(6, 6))
        a = m @ m.T + 6 * np.eye(6)
        b = rng.normal(size=6)
        x = solve_spd(a, b)
        assert np.max(np.abs(a @ x - b)) <= 1e-8 * (1 + np.max(np.abs(b)))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            solve_spd([[1.0, 2.0], [2.0, 1.0]], [1.0, 1.0])


class TestSymEig:
    def test_already_diagonal(self):
        res = sym_eig([[2.0, 0.0], [0.0, 1.0]])
        assert res.eigenvalues == pytest.approx([2.0, 1.0], abs=1e-12)
        assert np.abs(res.eigenvectors) == pytest.approx(np.eye(2), abs=1e-12)

    def test_hand_derived_2x2(self):
        # characteristic polynomial t^2 - 18 t + 1 = 0
        res = sym_eig([[5.0, 8.0], [8.0, 13.0]])
        assert res.eigenvalues == pytest.approx(
            [9 + 4 * np.sqrt(5), 9 - 4 * np.sqrt(5)], rel=1e-12
        )

    def test_rank_one(self):
        res = sym_eig([[3.0, 3.0], [3.0, 3.0]])
        assert res.eigenvalues == pytest.approx([6.0, 0.0], abs=1e-12)

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig([[1.0, 2.0], [0.0, 1.0]])

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            sym_eig(np.ones((2, 3)))

    def test_sign_convention_deterministic(self):
        a = random_symmetric(1, 5)
        r1, r2 = sym_eig(a), sym_eig(a)
        assert np.array_equal(r1.eigenvectors, r2.eigenvectors)
        for j in range(5):
            col = r1.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 8))
    def test_reconstruction_and_orthogonality(self, seed, dim):
        a = random_symmetric(seed, dim)
        res = sym_eig(a)
        recon = res.eigenvectors @ np.diag(res.eigenvalues) @ res.eigenvectors.T
        denom = max(frobenius_norm(a), 1e-12)
        assert frobenius_norm(recon - a) <= 1e-8 * denom
        gram = res.eigenvectors.T @ res.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-8
        # residual invariant per eigenpair
        for j in range(dim):
            resid = a @ res.eigenvectors[:, j] - res.eigenvalues[j] * res.eigenvectors[:, j]
            assert np.max(np.abs(resid)) <= 1e-9 * (1 + frobenius_norm(a))
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(1, 3))
    def test_trace_and_determinant(self, seed, dim):
        a = random_symmetric(seed, dim)
        res = sym_eig(a)
        assert float(np.sum(res.eigenvalues)) == pytest.approx(
            float(np.trace(a)), rel=1e-9, abs=1e-9
        )
        assert float(np.prod(res.eigenvalues)) == pytest.approx(
            closed_form_det(a), rel=1e-8, abs=1e-10
        )


def closed_form_det(a):
    d = a.shape[0]
    if d == 1:
        return float(a[0, 0])
    if d == 2:
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
