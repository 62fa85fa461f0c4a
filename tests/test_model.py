import numpy as np
import pytest

from eivtls.errors import DimensionMismatch, InvalidParams, RankDeficientDesign
from eivtls.estimator import tls_fit
from eivtls.model import (
    DesignSpec,
    build_design,
    expected_cross_product,
    repeating_block,
    score_sequence,
    sinusoidal,
    synthesize,
)
from eivtls.processes import ErrorMatrixSpec, iid_gaussian
from eivtls.seeding import derive_subseed


def iid_errors(p, sigma2=1.0):
    return ErrorMatrixSpec((iid_gaussian(),) * (p + 1), sigma2=sigma2)


class TestBuildDesign:
    def test_block_univariate_limit(self):
        z, delta = build_design(repeating_block([[1.0], [2.0]]), 4)
        assert np.array_equal(z[:, 0], [1.0, 2.0, 1.0, 2.0])
        assert delta == pytest.approx(np.array([[2.5]]))

    def test_orthonormal_tiling(self):
        _, delta = build_design(repeating_block([[1.0, 0.0], [0.0, 1.0]]), 100)
        assert np.array_equal(delta, 0.5 * np.eye(2))

    def test_pm_one_block(self):
        z, delta = build_design(repeating_block([[1.0], [-1.0], [1.0], [-1.0]]), 8)
        assert delta == pytest.approx(np.array([[1.0]]))
        assert np.array_equal(z[:, 0] ** 2, np.ones(8))

    def test_exact_delta_when_block_divides_n(self):
        spec = repeating_block([[1.0, 0.5], [0.0, 1.0], [1.0, -1.0]])
        z, delta = build_design(spec, 300)
        assert z.T @ z / 300 == pytest.approx(delta, abs=1e-12)

    def test_rank_deficient_block(self):
        with pytest.raises(RankDeficientDesign):
            repeating_block([[1.0, 2.0], [2.0, 4.0]])

    def test_overflowing_limit_matrix(self):
        with pytest.raises(InvalidParams, match="overflows"):
            repeating_block([[1e200, 0.0], [0.0, 1.0]])
        _, delta = build_design(repeating_block([[1e153, 0.0], [0.0, 1e153]]), 4)
        assert np.all(np.isfinite(delta))

    def test_n_too_small(self):
        with pytest.raises(InvalidParams):
            build_design(repeating_block([[1.0]]), 2)

    def test_sinusoidal_bounded_and_half_identity_limit(self):
        spec = sinusoidal((0.123, 0.271))
        z, delta = build_design(spec, 20_000)
        assert np.max(np.abs(z)) <= 1.0
        assert np.array_equal(delta, 0.5 * np.eye(2))
        assert z.T @ z / 20_000 == pytest.approx(delta, abs=0.01)

    def test_sinusoidal_validation(self):
        with pytest.raises(InvalidParams):
            sinusoidal((0.1, 0.1))
        with pytest.raises(InvalidParams):
            sinusoidal((0.7,))

    def test_fields_a_kind_does_not_read_are_refused(self):
        with pytest.raises(InvalidParams, match="kind 'repeating_block' takes no frequencies"):
            DesignSpec.from_dict({"kind": "repeating_block", "block": [[1.0]], "frequencies": [0.1]})
        with pytest.raises(InvalidParams, match="kind 'sinusoidal' takes no block"):
            DesignSpec.from_dict({"kind": "sinusoidal", "frequencies": [0.1], "block": [[1.0]]})

    @pytest.mark.parametrize("value", ["0.1", True], ids=["str", "bool"])
    def test_numeric_fields_refuse_strings_and_bools(self, value):
        with pytest.raises(InvalidParams, match="frequencies must be a number"):
            sinusoidal((0.2, value))
        with pytest.raises(InvalidParams, match="matrix entries must be finite numbers"):
            repeating_block([[value], [value]])
        with pytest.raises(InvalidParams, match="frequencies must be a list"):
            sinusoidal(value)

    def test_unknown_kind_and_key(self):
        for kind in ("tiled", ["repeating_block"], {"kind": "sinusoidal"}):
            with pytest.raises(InvalidParams, match="unknown design kind"):
                DesignSpec.from_dict({"kind": kind})
        with pytest.raises(InvalidParams, match="unknown key 'rows' in design"):
            DesignSpec.from_dict({"kind": "repeating_block", "block": [[1.0]], "rows": 1})

    def test_dict_roundtrip(self):
        for spec in (repeating_block([[1.0], [2.0]]), sinusoidal((0.1, 0.2))):
            rt = DesignSpec.from_dict(spec.to_dict())
            assert rt.kind == spec.kind
            assert rt.p == spec.p


class TestSynthesize:
    def test_model_identities_exact(self):
        inst = synthesize(repeating_block([[1.0], [2.0]]), [2.0], iid_errors(1), 10, 4)
        assert np.max(np.abs(inst.x - inst.theta - inst.z)) <= 1e-12
        assert np.max(np.abs(inst.y - inst.eps - inst.z @ inst.beta)) <= 1e-12
        assert inst.y - inst.eps == pytest.approx(np.tile([2.0, 4.0], 5), abs=1e-12)

    def test_near_noiseless_recovers_beta(self):
        errors = iid_errors(1, sigma2=1e-16)
        inst = synthesize(repeating_block([[1.0], [2.0]]), [3.0], errors, 50, 5)
        fit = tls_fit(inst.x, inst.y)
        assert fit.beta_hat == pytest.approx([3.0], abs=1e-6)

    def test_deterministic(self):
        a = synthesize(repeating_block([[1.0], [2.0]]), [2.0], iid_errors(1), 100, 6)
        b = synthesize(repeating_block([[1.0], [2.0]]), [2.0], iid_errors(1), 100, 6)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            synthesize(repeating_block([[1.0]]), [1.0, 2.0], iid_errors(2), 10, 0)
        with pytest.raises(DimensionMismatch):
            synthesize(repeating_block([[1.0]]), [1.0], iid_errors(2), 10, 0)


class TestExpectedCrossProduct:
    def test_hand_fixture(self):
        out = expected_cross_product([[1.0], [2.0]], [1.0], 1.0)
        assert out == pytest.approx(np.array([[7.0, 5.0], [5.0, 7.0]]))

    def test_block_structure_sigma_zero(self):
        z = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        out = expected_cross_product(z, [0.0, 0.0], 0.0)
        assert out[:2, :2] == pytest.approx(z.T @ z)
        assert out[2, :] == pytest.approx(0.0)
        assert out[:, 2] == pytest.approx(0.0)

    def test_projection_identity(self):
        # [I, b] E [b; -1] vanishes algebraically
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = rng.integers(1, 4)
            z = rng.normal(size=(10, p))
            beta = rng.normal(size=p)
            sigma2 = float(rng.uniform(0.1, 2.0))
            e = expected_cross_product(z, beta, sigma2)
            ib = np.hstack([np.eye(p), beta[:, None]])
            b = np.append(beta, -1.0)
            assert np.max(np.abs(ib @ e @ b)) < 1e-8 * (1 + np.max(np.abs(e)))

    def test_monte_carlo_mean_matches(self):
        design = repeating_block([[1.0], [2.0]])
        beta = np.array([1.5])
        errors = iid_errors(1)
        n, reps = 50, 800
        acc = np.zeros((reps, 2, 2))
        for r in range(reps):
            inst = synthesize(design, beta, errors, n, derive_subseed(77, r, 0))
            xy = np.column_stack([inst.x, inst.y])
            acc[r] = xy.T @ xy
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / np.sqrt(reps)
        z, _ = build_design(design, n)
        expected = expected_cross_product(z, beta, 1.0)
        assert np.all(np.abs(mean - expected) <= 4.0 * se)


class TestScoreSequence:
    def make_instance(self, seed=0, n=400):
        return synthesize(
            repeating_block([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            [1.0, -2.0],
            iid_errors(2),
            n,
            seed,
        )

    def test_zero_direction(self):
        inst = self.make_instance()
        assert np.array_equal(score_sequence(inst, np.zeros(3)), np.zeros(inst.n))

    def test_zero_errors_zero_scores(self):
        inst = self.make_instance()
        clean = type(inst)(
            z=inst.z,
            beta=inst.beta,
            sigma2=0.0,
            theta=np.zeros_like(inst.theta),
            eps=np.zeros_like(inst.eps),
            x=inst.z,
            y=inst.z @ inst.beta,
        )
        rho = score_sequence(clean, np.array([0.4, -1.0, 2.0]))
        assert np.array_equal(rho, np.zeros(inst.n))

    def test_sum_identity(self):
        from eivtls.model import expected_cross_product

        rng = np.random.default_rng(5)
        for seed in range(10):
            inst = self.make_instance(seed)
            t = rng.normal(size=3)
            rho = score_sequence(inst, t)
            xy = np.column_stack([inst.x, inst.y])
            b = np.append(inst.beta, -1.0)
            rhs = float(
                t
                @ (xy.T @ xy - expected_cross_product(inst.z, inst.beta, inst.sigma2))
                @ b
            )
            assert abs(rho.sum() - rhs) <= 1e-8 * (1 + abs(rhs))

    def test_replication_mean_near_zero(self):
        t = np.array([1.0, 0.5, -0.5])
        reps = 600
        sums = np.empty(reps)
        for r in range(reps):
            inst = self.make_instance(seed=derive_subseed(5150, r, 0), n=60)
            sums[r] = score_sequence(inst, t).mean()
        se = sums.std(ddof=1) / np.sqrt(reps)
        assert abs(sums.mean()) <= 4.0 * se

    def test_dimension_mismatch(self):
        inst = self.make_instance()
        with pytest.raises(DimensionMismatch):
            score_sequence(inst, np.ones(2))
