import numpy as np
import pytest
from scipy import stats as sps

import eivtls.stats as stats_mod
from eivtls.errors import (
    DegenerateVariance,
    EmptySample,
    InsufficientData,
    InvalidParams,
    SingularCovariance,
    TooFewSamples,
)
from eivtls.seeding import derive_subseed
from eivtls.stats import (
    _icbrt,
    clt_check,
    ks_statistic,
    long_run_variance,
    mardia_tests,
    normality_battery,
)
from eivtls.processes import generate_sequence, iid_gaussian, ma


class TestMardia:
    def test_symmetric_two_point_has_zero_skewness(self):
        x = np.tile([1.0, -1.0], 50)
        res = mardia_tests(x)
        assert res.skewness_stat == pytest.approx(0.0, abs=1e-9)

    def test_rejects_skewed_alternative(self):
        rng = np.random.default_rng(0)
        x = rng.exponential(size=(2000, 2))
        res = mardia_tests(x)
        assert res.skewness_pvalue < 1e-6
        assert res.kurtosis_pvalue < 1e-3

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            mardia_tests(np.zeros((39, 2)))

    def test_singular_covariance(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=100)
        with pytest.raises(SingularCovariance):
            mardia_tests(np.column_stack([col, 2.0 * col]))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_pairwise_definition(self, d):
        rng = np.random.default_rng(d)
        x = rng.exponential(size=(200, d)) @ rng.normal(size=(d, d))
        r = x.shape[0]
        xc = x - x.mean(axis=0)
        g = xc @ np.linalg.inv(xc.T @ xc / r) @ xc.T  # g[i, j] = xc_i' S^-1 xc_j
        b1 = np.sum(g**3) / r**2
        b2 = np.mean(np.diag(g) ** 2)
        res = mardia_tests(x)
        assert res.skewness_stat == pytest.approx(r * b1 / 6.0, rel=1e-10)
        expected_kurt = (b2 - d * (d + 2)) / np.sqrt(8.0 * d * (d + 2) / r)
        assert res.kurtosis_stat == pytest.approx(expected_kurt, rel=1e-10)

    def test_null_calibration(self):
        # at the 5% level the rejection rate over many gaussian draws should
        # be near 5% for both statistics
        seeds = 200
        rej_skew = rej_kurt = 0
        for s in range(seeds):
            x = np.random.default_rng(s).normal(size=(400, 2))
            res = mardia_tests(x)
            rej_skew += res.skewness_pvalue < 0.05
            rej_kurt += res.kurtosis_pvalue < 0.05
        assert rej_skew / seeds < 0.12
        assert rej_kurt / seeds < 0.12


class TestKs:
    def test_degenerate_point_mass_at_median(self):
        # all mass at the cdf value 0.5 gives D = 0.5 exactly
        d, _ = ks_statistic(np.zeros(100), sps.norm.cdf)
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_perfect_grid_fixture(self):
        # uniform sample placed exactly at mid-quantiles gives D = 1/(2n)
        n = 10
        x = (np.arange(1, n + 1) - 0.5) / n
        d, p = ks_statistic(x, lambda v: np.clip(v, 0.0, 1.0))
        assert d == pytest.approx(1.0 / (2 * n), abs=1e-12)
        assert p > 0.99

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            ks_statistic(np.array([]), sps.norm.cdf)

    def test_decreasing_cdf_rejected(self):
        with pytest.raises(InvalidParams):
            ks_statistic(np.array([0.0, 1.0]), lambda v: -np.asarray(v))

    def test_scalar_cdf_fallback(self):
        d_vec, _ = ks_statistic(np.linspace(-1, 1, 50), sps.norm.cdf)
        d_scl, _ = ks_statistic(np.linspace(-1, 1, 50), lambda v: float(sps.norm.cdf(v)))
        assert d_vec == d_scl

    def test_null_calibration(self):
        rejected = 0
        for s in range(200):
            x = np.random.default_rng(s).normal(size=500)
            _, p = ks_statistic(x, sps.norm.cdf)
            rejected += p < 0.05
        assert rejected / 200 < 0.10

    def test_matches_scipy(self):
        x = np.random.default_rng(7).normal(size=300)
        d, _ = ks_statistic(x, sps.norm.cdf)
        ref = sps.kstest(x, "norm")
        assert d == pytest.approx(ref.statistic, abs=1e-12)


class TestCltCheck:
    def test_iid_varsigma_is_one(self):
        rep = clt_check(iid_gaussian(), n=1000, replications=600, seed=40)
        assert abs(rep.varsigma2_estimate - 1.0) < 0.15
        assert rep.ks_vs_standard_normal[1] > 0.01

    def test_ma1_long_run_variance_two(self):
        rep = clt_check(ma((1.0, 1.0)), n=1000, replications=800, seed=41)
        assert abs(rep.varsigma2_estimate - 2.0) < 0.25
        assert rep.ks_vs_standard_normal[1] > 0.01

    def test_preconditions(self):
        with pytest.raises(InvalidParams):
            clt_check(iid_gaussian(), n=1000, replications=100, seed=0)
        with pytest.raises(InvalidParams):
            clt_check(iid_gaussian(), n=100, replications=500, seed=0)

    def test_degenerate_variance(self, monkeypatch):
        monkeypatch.setattr(
            stats_mod, "generate_sequence", lambda spec, n, seed: np.zeros(n)
        )
        with pytest.raises(DegenerateVariance):
            clt_check(iid_gaussian(), n=1000, replications=500, seed=0)


class TestNormalityBattery:
    def test_gaussian_sample_passes(self):
        x = np.random.default_rng(2).normal(size=(2000, 2))
        rep = normality_battery(x)
        assert rep.mardia_skewness_pvalue > 0.01
        assert rep.mardia_kurtosis_pvalue > 0.01
        labels = [lbl for lbl, _, _ in rep.ks_projection_stats]
        assert labels == ["axis-1", "axis-2", "ones"]
        for _, _, p in rep.ks_projection_stats:
            assert p > 0.01

    def test_univariate_has_single_axis(self):
        x = np.random.default_rng(3).normal(size=1000)
        rep = normality_battery(x)
        assert rep.dim == 1
        assert [lbl for lbl, _, _ in rep.ks_projection_stats] == ["axis-1"]

    def test_to_dict_serializable(self):
        import json

        x = np.random.default_rng(4).normal(size=(500, 2))
        json.dumps(normality_battery(x).to_dict())


class TestLongRunVariance:
    def test_bandwidth_zero_is_sample_covariance(self):
        x = np.random.default_rng(5).normal(size=(400, 2))
        out = long_run_variance(x, bandwidth=0)
        xc = x - x.mean(axis=0)
        assert np.array_equal(out.matrix, 0.5 * ((xc.T @ xc / 400) + (xc.T @ xc / 400).T))
        assert out.bandwidth == 0
        assert out.positive_definite

    def test_ma1_matches_closed_form(self):
        # MA(1) with equal weights has long-run variance twice the marginal
        x = generate_sequence(ma((1.0, 1.0)), 100_000, 50)
        out = long_run_variance(x, bandwidth=30)
        assert abs(out.matrix[0, 0] - 2.0) / 2.0 < 0.05

    def test_auto_bandwidth(self):
        x = np.random.default_rng(6).normal(size=1000)
        assert long_run_variance(x).bandwidth == 10

    def test_constant_rows_zero_matrix(self):
        out = long_run_variance(np.ones((200, 2)), bandwidth=2)
        assert np.array_equal(out.matrix, np.zeros((2, 2)))
        assert not out.positive_definite
        assert not out.psd_clipped

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            long_run_variance(np.zeros((30, 1)), bandwidth=4)

    def test_negative_bandwidth(self):
        with pytest.raises(InvalidParams):
            long_run_variance(np.zeros((100, 1)), bandwidth=-1)

    def test_alternating_series_clips_to_psd(self):
        # a deterministic alternating sequence drives the Bartlett estimate
        # negative before clipping
        x = np.tile([1.0, -1.0], 200)
        out = long_run_variance(x, bandwidth=1)
        assert out.matrix[0, 0] >= 0.0


class TestIcbrt:
    def test_exact_cubes_and_neighbours(self):
        for k in (1, 9, 10, 31, 100):
            assert _icbrt(k**3) == k
            assert _icbrt(k**3 - 1) == k - 1
            assert _icbrt(k**3 + 1) == k

    def test_small_values(self):
        assert _icbrt(0) == 0
        assert _icbrt(7) == 1
        assert _icbrt(8) == 2


class TestDeriveSubseedSanity:
    def test_streams_differ(self):
        a = generate_sequence(iid_gaussian(), 100, derive_subseed(1, 0, 0))
        b = generate_sequence(iid_gaussian(), 100, derive_subseed(1, 1, 0))
        assert not np.array_equal(a, b)
