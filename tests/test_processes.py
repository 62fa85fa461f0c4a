import numpy as np
import pytest

from eivtls.errors import InvalidParams
from eivtls.processes import (
    UNBOUNDED_BELOW_RANGE,
    ErrorMatrixSpec,
    ErrorProcessSpec,
    ar1,
    generate_error_matrix,
    generate_sequence,
    iid_gaussian,
    ma,
    theoretical_mixing_bound,
)

N = 100_000


class TestSpecValidation:
    def test_scale_positive(self):
        with pytest.raises(InvalidParams):
            iid_gaussian(scale=0.0)

    def test_ar1_coefficient_bound(self):
        with pytest.raises(InvalidParams):
            ar1(1.0)
        with pytest.raises(InvalidParams):
            ar1(-1.5)

    def test_ma_needs_coefficients(self):
        with pytest.raises(InvalidParams):
            ma(())
        with pytest.raises(InvalidParams):
            ma((0.0, 0.0))

    def test_mixing_class_conventions(self):
        assert ma((1.0, 1.0)).mixing_class == "phi"
        assert ma((1.0, 1.0)).delta is None
        assert ma((1.0, 1.0)).finite_range
        assert ar1(0.5, delta=2.0).mixing_class == "alpha"
        assert iid_gaussian().mixing_class == "independent"

    def test_convention_violations_rejected(self):
        with pytest.raises(InvalidParams):
            ErrorProcessSpec(kind="ma", coeffs=(1.0, 1.0), mixing_class="alpha")
        with pytest.raises(InvalidParams):
            ErrorProcessSpec(kind="ma", coeffs=(1.0,), mixing_class="phi", delta=1.0)

    def test_rate_and_moment_metadata_must_be_numbers(self):
        spec = ar1(0.5, delta=3, omega=1)
        assert (type(spec.delta), type(spec.omega)) == (float, float)
        with pytest.raises(InvalidParams):
            ar1(0.5, delta="x")
        with pytest.raises(InvalidParams):
            ma((1.0, 1.0), omega=[1.0])

    def test_roundtrip_dict(self):
        for spec in (iid_gaussian(2.0), ma((1.0, 0.6, 0.3), omega=1.0), ar1(0.5, delta=3.0)):
            assert ErrorProcessSpec.from_dict(spec.to_dict()) == spec


class TestGenerateSequence:
    def test_iid_moments(self):
        x = generate_sequence(iid_gaussian(), N, 11)
        assert abs(x.mean()) < 0.02
        assert 0.96 < x.var() < 1.04

    def test_ma1_autocorrelation(self):
        x = generate_sequence(ma((1.0, 1.0)), N, 12)
        acf1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        acf2 = np.corrcoef(x[:-2], x[2:])[0, 1]
        assert abs(acf1 - 0.5) < 0.02  # MA(1) lag-1 autocorrelation c0 c1/(c0^2+c1^2)
        assert abs(acf2) < 0.02

    def test_ar1_degenerate_is_iid(self):
        x = generate_sequence(ar1(0.0, scale=2.0), N, 13)
        assert 3.84 < x.var() < 4.16

    def test_ar1_autocorrelation(self):
        x = generate_sequence(ar1(0.5, scale=1.0), N, 14)
        acf1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(acf1 - 0.5) < 0.02

    def test_zero_mean_envelope(self):
        for spec in (iid_gaussian(), ma((1.0, 0.6, 0.3)), ar1(0.7)):
            x = generate_sequence(spec, N, 15)
            assert abs(x.mean()) < 5.0 * spec.scale / np.sqrt(N)

    def test_q_dependence_kills_autocovariance(self):
        q = 2
        x = generate_sequence(ma((1.0, 0.6, 0.3)), N, 16)
        for lag in range(q + 1, q + 5):
            acov = np.mean(x[:-lag] * x[lag:])
            assert abs(acov) < 4.0 / np.sqrt(N)

    def test_stationarity_halves_agree(self):
        for spec in (ma((1.0, 1.0)), ar1(0.5)):
            x = generate_sequence(spec, N, 17)
            v1, v2 = x[: N // 2].var(), x[N // 2 :].var()
            assert abs(v1 - v2) / v1 < 0.10

    def test_deterministic(self):
        spec = ar1(0.3)
        assert np.array_equal(
            generate_sequence(spec, 1000, 5), generate_sequence(spec, 1000, 5)
        )

    def test_n_positive(self):
        with pytest.raises(InvalidParams):
            generate_sequence(iid_gaussian(), 0, 1)


class TestMixingBound:
    def test_ma_beyond_range(self):
        assert theoretical_mixing_bound(ma((1.0, 0.5, 0.2)), 3) == 0.0

    def test_ma_inside_range(self):
        assert theoretical_mixing_bound(ma((1.0, 0.5, 0.2)), 2) == UNBOUNDED_BELOW_RANGE

    def test_iid_zero(self):
        assert theoretical_mixing_bound(iid_gaussian(), 1) == 0.0

    def test_ar1_envelope(self):
        assert theoretical_mixing_bound(ar1(0.5, delta=3.0), 10) == pytest.approx(1e-4)


class TestErrorMatrix:
    def test_sigma2_positive_required(self):
        with pytest.raises(InvalidParams):
            ErrorMatrixSpec((iid_gaussian(), iid_gaussian()), sigma2=0.0)

    def test_cross_column_independence(self):
        spec = ErrorMatrixSpec((iid_gaussian(), iid_gaussian()), sigma2=1.0)
        w = generate_error_matrix(spec, N, 21)
        corr = np.corrcoef(w[:, 0], w[:, 1])[0, 1]
        assert abs(corr) < 0.01

    def test_pairwise_independence_mixed_kinds(self):
        spec = ErrorMatrixSpec((ar1(0.5), ma((1.0, 1.0)), iid_gaussian()), sigma2=1.0)
        w = generate_error_matrix(spec, N, 22)
        for a in range(3):
            for b in range(a + 1, 3):
                assert abs(np.corrcoef(w[:, a], w[:, b])[0, 1]) < 4.0 / np.sqrt(N)

    def test_columns_rescaled_to_sigma2(self):
        spec = ErrorMatrixSpec((iid_gaussian(scale=7.0), ar1(0.5, scale=0.1)), sigma2=4.0)
        w = generate_error_matrix(spec, N, 23)
        for j in range(2):
            assert 3.84 < w[:, j].var() < 4.16

    def test_deterministic(self):
        spec = ErrorMatrixSpec((ar1(0.2), iid_gaussian()), sigma2=1.0)
        assert np.array_equal(
            generate_error_matrix(spec, 500, 9), generate_error_matrix(spec, 500, 9)
        )
