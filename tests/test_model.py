from dataclasses import fields

import numpy as np
import pytest

from eivtls.errors import InvalidParams
from eivtls.estimator import tls_fit
from eivtls.model import (
    KIND_FIELDS,
    DesignSpec,
    build_design,
    expected_cross_product,
    repeating_block,
    sinusoidal,
    synthesize,
)
from eivtls.montecarlo import ExperimentConfig, clt_check
from eivtls.processes import (
    ErrorMatrixSpec,
    generate_error_matrix,
    generate_sequence,
    iid_gaussian,
    ma,
)
from eivtls.seeding import derive_subseed


def iid_errors(p, sigma2=1.0):
    return ErrorMatrixSpec((iid_gaussian(),) * (p + 1), sigma2=sigma2)


class TestBuildDesign:
    def test_block_univariate_limit(self):
        spec = repeating_block([[1.0], [2.0]])
        z = build_design(spec, 4)
        assert np.array_equal(z[:, 0], [1.0, 2.0, 1.0, 2.0])
        assert spec.limit == pytest.approx(np.array([[2.5]]))

    def test_orthonormal_tiling(self):
        spec = repeating_block([[1.0, 0.0], [0.0, 1.0]])
        z = build_design(spec, 100)
        assert np.array_equal(spec.limit, 0.5 * np.eye(2))
        assert np.array_equal(z.T @ z / 100, spec.limit)

    def test_pm_one_block(self):
        spec = repeating_block([[1.0], [-1.0], [1.0], [-1.0]])
        z = build_design(spec, 8)
        assert spec.limit == pytest.approx(np.array([[1.0]]))
        assert np.array_equal(z[:, 0] ** 2, np.ones(8))

    def test_exact_delta_when_block_divides_n(self):
        spec = repeating_block([[1.0, 0.5], [0.0, 1.0], [1.0, -1.0]])
        z = build_design(spec, 300)
        assert z.T @ z / 300 == pytest.approx(spec.limit, abs=1e-12)

    def test_rank_deficient_block(self):
        with pytest.raises(InvalidParams, match="block columns are linearly dependent"):
            repeating_block([[1.0, 2.0], [2.0, 4.0]])

    def test_overflowing_limit_matrix(self):
        with pytest.raises(InvalidParams, match="overflows"):
            repeating_block([[1e200, 0.0], [0.0, 1.0]])
        assert np.all(np.isfinite(repeating_block([[1e153, 0.0], [0.0, 1e153]]).limit))

    def test_n_too_small(self):
        with pytest.raises(InvalidParams):
            build_design(repeating_block([[1.0]]), 2)

    def test_sinusoidal_bounded_and_half_identity_limit(self):
        spec = sinusoidal((0.123, 0.271))
        z = build_design(spec, 20_000)
        assert np.max(np.abs(z)) <= 1.0
        assert np.array_equal(spec.limit, 0.5 * np.eye(2))
        assert z.T @ z / 20_000 == pytest.approx(spec.limit, abs=0.01)

    def test_sinusoidal_validation(self):
        with pytest.raises(InvalidParams):
            sinusoidal((0.1, 0.1))
        with pytest.raises(InvalidParams):
            sinusoidal((0.7,))
        with pytest.raises(InvalidParams, match="at least one frequency"):
            sinusoidal([])

    def test_fields_a_kind_does_not_read_are_refused(self):
        # Every field that a kind does not list in KIND_FIELDS, so a new field is tried too.
        values = {"block": [[1.0]], "frequencies": [0.1]}
        for kind, reads in KIND_FIELDS.items():
            for field in [f.name for f in fields(DesignSpec)[1:] if f.name not in reads]:
                d = {"kind": kind, **{name: values[name] for name in reads}}
                d[field] = values.get(field, 0.5)
                with pytest.raises(InvalidParams, match=f"kind '{kind}' takes no {field}"):
                    DesignSpec.from_dict(d)

    @pytest.mark.parametrize("value", ["0.1", True], ids=["str", "bool"])
    def test_numeric_fields_refuse_strings_and_bools(self, value):
        with pytest.raises(InvalidParams, match="matrix entries must be finite numbers"):
            repeating_block([[value], [value]])
        with pytest.raises(InvalidParams, match="frequencies must be a list"):
            sinusoidal(value)

    def test_unknown_kind(self):
        for kind in ("tiled", ["repeating_block"], {"kind": "sinusoidal"}):
            with pytest.raises(InvalidParams, match="unknown design kind"):
                DesignSpec.from_dict({"kind": kind})


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
        with pytest.raises(InvalidParams, match="beta has 2 entries, design has p=1"):
            synthesize(repeating_block([[1.0]]), [1.0, 2.0], iid_errors(2), 10, 0)
        with pytest.raises(InvalidParams, match=r"error spec has 3 columns, expected p \+ 1 = 2"):
            synthesize(repeating_block([[1.0]]), [1.0], iid_errors(2), 10, 0)

    @pytest.mark.parametrize(
        "beta, errors, message",
        [
            ([1.0], iid_errors(2), "beta has 1 entries, design has p=2"),
            ([1.0, 2.0], iid_errors(1), r"error spec has 2 columns, expected p \+ 1 = 3"),
        ],
        ids=["short-beta", "missing-error-column"],
    )
    def test_each_reader_words_an_agreement_fault_alike(self, beta, errors, message):
        design = repeating_block([[1.0, 0.0], [0.0, 1.0]])
        config = {
            "design": design.to_dict(),
            "beta": beta,
            "errors": errors.to_dict(),
            "n_grid": [10],
            "replications": 100,
            "master_seed": 0,
        }
        readers = [
            lambda: ExperimentConfig.from_dict(config),
            lambda: synthesize(design, beta, errors, 10, 0),
        ]
        if errors.p == design.p:  # expected_cross_product reads no error spec
            readers.append(lambda: expected_cross_product(build_design(design, 10), beta, 1.0))
        for read in readers:
            with pytest.raises(InvalidParams, match=f"^{message}$"):
                read()


BLOCK = repeating_block([[1.0], [2.0]])

# Each public function that takes a size and a seed, called at (n, seed).
DRAWS = {
    "generate_sequence": lambda n, seed: generate_sequence(ma((1.0, 1.0)), n, seed),
    "generate_error_matrix": lambda n, seed: generate_error_matrix(iid_errors(1), n, seed),
    "synthesize": lambda n, seed: synthesize(BLOCK, [2.0], iid_errors(1), n, seed).x,
    "clt_check": lambda n, seed: clt_check(iid_gaussian(), n, 500, seed).s_over_sigma,
}


class TestSizeAndSeedArguments:
    """Whole-number floats are read as sizes and seeds; ``test_linalg`` owns the refusals."""

    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_whole_number_floats_draw_as_integers(self, draw):
        n = 500 if draw == "clt_check" else 10
        expected = DRAWS[draw](n, 5)
        for size, seed in ((float(n), 5.0), (np.float64(n), np.float64(5.0))):
            assert np.array_equal(DRAWS[draw](size, seed), expected)


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

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
    def test_sigma2_is_a_non_negative_finite_number(self, sigma2):
        with pytest.raises(InvalidParams, match="sigma2 must be"):
            expected_cross_product([[1.0], [2.0]], [1.0], sigma2)

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
        z = build_design(design, n)
        expected = expected_cross_product(z, beta, 1.0)
        assert np.all(np.abs(mean - expected) <= 4.0 * se)

