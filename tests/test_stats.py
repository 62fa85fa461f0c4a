import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

import eivtls.processes
from eivtls.errors import InvalidParams, NumericalError
from eivtls.linalg import MAX_LENGTH, icbrt
from eivtls.seeding import derive_subseed
from eivtls.stats import (
    clt_check,
    ks_statistic,
    long_run_variance,
    mardia_tests,
    normality_battery,
)
from eivtls.processes import ar1, generate_sequence, iid_gaussian, ma


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
        with pytest.raises(InvalidParams, match=r"need at least 20\*d = 40 samples, have 39"):
            mardia_tests(np.zeros((39, 2)))

    def test_non_finite_sample_is_a_config_error(self):
        x = np.random.default_rng(1).normal(size=(100, 2))
        x[10, 1] = np.nan
        with pytest.raises(InvalidParams, match="entries must be finite numbers"):
            mardia_tests(x)
        with pytest.raises(InvalidParams, match="entries must be finite numbers"):
            normality_battery(x)

    def test_singular_covariance(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=100)
        with pytest.raises(NumericalError, match="sample covariance is (numerically )?singular"):
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

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_pvalues_equal_scipy_stats_bitwise(self, d):
        # special.chdtrc and special.ndtr are what scipy.stats' chi2.sf and
        # norm.sf evaluate; the p-values must not move by a single bit.
        for seed in range(20):
            x = np.random.default_rng(seed).standard_t(5, size=(100 * d, d))
            res = mardia_tests(x)
            df = d * (d + 1) * (d + 2) / 6.0
            assert res.skewness_pvalue == float(sps.chi2.sf(res.skewness_stat, df))
            assert res.kurtosis_pvalue == float(2.0 * sps.norm.sf(abs(res.kurtosis_stat)))

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


def ks_reference(x):
    """KS distance from N(0, 1) and p-value, the cdf taken from scipy.stats."""
    x = np.sort(x)
    n = x.shape[0]
    f = sps.norm.cdf(x)
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    return d, float(sps.kstwobign.sf(np.sqrt(n) * d))


class TestKs:
    def test_degenerate_point_mass_at_median(self):
        # all mass at the cdf value 0.5 gives D = 0.5 exactly
        d, _ = ks_statistic(np.zeros(100))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_perfect_grid_fixture(self):
        # a sample placed exactly at the normal mid-quantiles gives D = 1/(2n)
        n = 10
        x = special.ndtri((np.arange(1, n + 1) - 0.5) / n)
        d, p = ks_statistic(x)
        assert d == pytest.approx(1.0 / (2 * n), abs=1e-12)
        assert p > 0.99

    @pytest.mark.parametrize(
        "sample", [[np.nan, 1.0], [np.inf, 1.0], np.ones((3, 2)), ["1", "2"], [[1], [1, 2]]],
        ids=["nan", "inf", "2-d", "strings", "ragged"],
    )
    def test_sample_is_a_finite_vector(self, sample):
        with pytest.raises(InvalidParams):
            ks_statistic(sample)

    def test_empty_sample(self):
        with pytest.raises(InvalidParams, match=r"expected a 1-d vector, got shape \(0,\)"):
            ks_statistic(np.array([]))

    def test_null_calibration(self):
        rejected = 0
        for s in range(200):
            x = np.random.default_rng(s).normal(size=500)
            _, p = ks_statistic(x)
            rejected += p < 0.05
        assert rejected / 200 < 0.10

    def test_ndtr_cdf_equals_scipy_stats_bitwise(self):
        for seed in range(20):
            x = np.random.default_rng(seed).standard_t(4, size=500) * 2.0
            assert ks_statistic(x) == ks_reference(x)
        z = np.random.default_rng(0).normal(scale=4.0, size=200_000)
        assert np.array_equal(special.ndtr(z), sps.norm.cdf(z))

    def test_matches_scipy(self):
        x = np.random.default_rng(7).normal(size=300)
        d, _ = ks_statistic(x)
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

    @pytest.mark.parametrize("spec", [ma((1.0, 0.5)), ar1(0.4)], ids=["ma", "ar1"])
    def test_chunked_sums_equal_per_replication_sequences(self, spec, draw_policy):
        # The one-sequence-per-replication loop the chunked draw replaces.
        sums = np.array(
            [generate_sequence(spec, 700, derive_subseed(8, r, 0)).sum() for r in range(500)]
        )
        # Chunks of 374 replications on the calling thread, of 124 on three workers.
        for rows, workers in ((374, 1), (124, 3)):
            draw_policy(elements=rows * 700, cpus=workers)
            rep = clt_check(spec, n=700, replications=500, seed=8)
            assert np.array_equal(rep.s_over_sigma, sums / np.sqrt(np.var(sums, ddof=1)))

    def test_process_may_be_its_config_object(self):
        rep = clt_check({"kind": "ma", "coeffs": [1.0, 1.0]}, 500, 500, 0)
        same = clt_check(ma((1.0, 1.0)), 500, 500, 0)
        assert rep.config == same.config
        assert np.array_equal(rep.s_over_sigma, same.s_over_sigma)
        with pytest.raises(InvalidParams, match="^ma spec needs at least one coefficient"):
            clt_check({"kind": "ma"}, 500, 500, 0)

    def test_preconditions(self):
        with pytest.raises(InvalidParams):
            clt_check(iid_gaussian(), n=1000, replications=100, seed=0)
        with pytest.raises(InvalidParams):
            clt_check(iid_gaussian(), n=100, replications=500, seed=0)

    def test_degenerate_variance(self, monkeypatch):
        monkeypatch.setattr(
            eivtls.processes, "_fill_column", lambda spec, sd, words, out: out.fill(0.0)
        )
        with pytest.raises(NumericalError, match="partial-sum variance estimate is not positive"):
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
        assert np.array_equal(out.matrix, xc.T @ xc / 400)
        assert out.bandwidth == 0
        assert out.positive_definite

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_bartlett_sum_is_exactly_symmetric(self, d):
        # Unclipped, the estimate is the Bartlett sum as formed, with no
        # symmetrising step: eigh reads only its lower triangle.
        x = np.random.default_rng(d).standard_normal((500, d)) + 2.0
        out = long_run_variance(x, bandwidth=7)
        assert not out.psd_clipped
        xc = x - x.mean(axis=0)
        expected = xc.T @ xc / 500
        for k in range(1, 8):
            gamma = xc[k:].T @ xc[:-k] / 500
            expected += (1.0 - k / 8.0) * (gamma + gamma.T)
        assert np.array_equal(out.matrix, expected)
        assert np.array_equal(out.matrix, out.matrix.T)

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
        with pytest.raises(InvalidParams, match=r"need at least 10\*\(bandwidth\+1\) = 50 rows"):
            long_run_variance(np.zeros((30, 1)), bandwidth=4)

    def test_negative_bandwidth(self):
        # Also no fraction, string or bool: the bandwidth is a whole number.
        for bandwidth in (-1, 2.5, "3", True):
            with pytest.raises(InvalidParams):
                long_run_variance(np.zeros((100, 1)), bandwidth=bandwidth)

    def test_non_finite_rows_rejected(self):
        x = np.random.default_rng(7).normal(size=(200, 2))
        x[50, 1] = np.nan
        with pytest.raises(InvalidParams):
            long_run_variance(x, bandwidth=2)

    def test_alternating_series_clips_to_psd(self):
        # A column equal to the sum of the other two makes the estimate
        # singular, so rounding leaves its least eigenvalue on either side of
        # zero; with these rows it is negative before clipping.
        z = np.random.default_rng(1).standard_normal((300, 2))
        out = long_run_variance(np.column_stack([z, z.sum(axis=1)]))
        assert out.psd_clipped and not out.positive_definite
        assert np.array_equal(out.matrix, out.matrix.T)
        assert np.linalg.eigvalsh(out.matrix)[0] >= -1e-12 * np.trace(out.matrix)


class TestIcbrt:
    def test_exact_cubes_and_neighbours(self):
        for k in (1, 9, 10, 31, 100):
            assert icbrt(k**3) == k
            assert icbrt(k**3 - 1) == k - 1
            assert icbrt(k**3 + 1) == k

    def test_cubes_near_the_largest_length(self):
        # MAX_LENGTH^(1/3) is about 1.05e6, where the float root errs most.
        top = icbrt(MAX_LENGTH)
        assert top**3 <= MAX_LENGTH < (top + 1) ** 3
        for k in (top - 1000, top - 1, top):
            assert icbrt(k**3) == k
            assert icbrt(k**3 - 1) == k - 1
            assert icbrt(k**3 + 1) == k
            assert icbrt((k + 1) ** 3 - 1) == k

    def test_small_values(self):
        assert icbrt(0) == 0
        assert icbrt(7) == 1
        assert icbrt(8) == 2


class TestDeriveSubseedSanity:
    def test_streams_differ(self):
        a = generate_sequence(iid_gaussian(), 100, derive_subseed(1, 0, 0))
        b = generate_sequence(iid_gaussian(), 100, derive_subseed(1, 1, 0))
        assert not np.array_equal(a, b)
