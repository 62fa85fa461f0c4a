import threading
import tracemalloc

import numpy as np
import pytest

import eivtls.bootstrap as bootstrap_mod
from eivtls.bootstrap import (
    BootstrapCi,
    BootstrapConfig,
    block_bootstrap_ci,
    choose_block_length,
)
from eivtls.errors import InvalidParams, NumericalError
from eivtls.estimator import FIT_NONGENERIC, tls_from_gram
from eivtls.model import repeating_block, synthesize
from eivtls.processes import ErrorMatrixSpec, iid_gaussian, ma
from eivtls.seeding import derive_subseed, stream


def refits_failing(failed):
    """A tls_from_gram that marks the rows r with ``failed(r)`` of each chunk non-generic."""

    def kernel(m):
        fits = tls_from_gram(m)
        status = fits.status.copy()
        status[failed(np.arange(len(status)))] = FIT_NONGENERIC
        return fits._replace(status=status)

    return kernel


def make_dataset(n, seed=0, sigma2=0.25, dependent=False):
    col = ma((1.0, 1.0)) if dependent else iid_gaussian()
    errors = ErrorMatrixSpec((col, col), sigma2=sigma2)
    inst = synthesize(repeating_block([[1.0], [2.0]]), [1.5], errors, n, seed)
    return inst.x, inst.y


class TestChooseBlockLength:
    def test_cube_root_defaults(self):
        assert choose_block_length(1000) == 10
        assert choose_block_length(27_000) == 30

    def test_small_n_clamped_by_quarter(self):
        assert choose_block_length(8) == 2
        assert choose_block_length(12) == 2

    def test_too_small(self):
        with pytest.raises(InvalidParams, match="rows for an automatic block length"):
            choose_block_length(7)


class TestBootstrapConfig:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            BootstrapConfig(block_length=0)
        with pytest.raises(InvalidParams):
            BootstrapConfig(n_boot=100)
        with pytest.raises(InvalidParams):
            BootstrapConfig(level=1.0)
        for seed in (1.5, "7", True):
            with pytest.raises(InvalidParams, match="seed must be a whole number"):
                BootstrapConfig(seed=seed)
        for level in ("0.9", True, None):
            with pytest.raises(InvalidParams, match="level must be a number"):
                BootstrapConfig(level=level)

    def test_fractional_resample_count_refused(self):
        with pytest.raises(InvalidParams, match="n_boot must be a whole number"):
            BootstrapConfig(n_boot=199.5)
        assert BootstrapConfig(n_boot=250.0).n_boot == 250

    def test_fractional_block_length_refused(self):
        with pytest.raises(InvalidParams, match="block_length must be a whole number"):
            BootstrapConfig(block_length=2.5)
        assert BootstrapConfig(block_length=3.0).block_length == 3

    def test_auto_passthrough(self):
        assert BootstrapConfig().block_length == "auto"
        assert BootstrapConfig(block_length=5).block_length == 5


class TestBlockBootstrapCi:
    def test_interval_brackets_point_estimate(self):
        x, y = make_dataset(400)
        ci = block_bootstrap_ci(x, y, BootstrapConfig(seed=3))
        assert ci.lower[0] <= ci.point_estimate[0] <= ci.upper[0]
        assert ci.block_length == choose_block_length(400)
        assert ci.n_boot_effective == 999
        assert ci.failure_count == 0

    def test_deterministic(self):
        x, y = make_dataset(300)
        cfg = BootstrapConfig(seed=11, n_boot=299)
        a = block_bootstrap_ci(x, y, cfg)
        b = block_bootstrap_ci(x, y, cfg)
        assert a.to_dict() == b.to_dict()

    def test_block_length_equal_n_degenerates(self):
        # a single block covering everything reproduces the original dataset,
        # so every draw equals the point estimate and the interval has zero width
        x, y = make_dataset(100)
        ci = block_bootstrap_ci(x, y, BootstrapConfig(block_length=100, n_boot=199))
        assert ci.lower == pytest.approx(ci.point_estimate, abs=1e-12)
        assert ci.upper == pytest.approx(ci.point_estimate, abs=1e-12)

    def test_block_too_long(self):
        x, y = make_dataset(100)
        with pytest.raises(InvalidParams, match="block length 101 exceeds n = 100"):
            block_bootstrap_ci(x, y, BootstrapConfig(block_length=101))

    def test_width_shrinks_with_n(self):
        widths = {}
        for n in (500, 2000):
            x, y = make_dataset(n, seed=21)
            ci = block_bootstrap_ci(x, y, BootstrapConfig(seed=5, n_boot=399))
            widths[n] = float(ci.upper[0] - ci.lower[0])
        assert widths[2000] < widths[500]

    def test_iid_block_one_close_to_auto(self):
        x, y = make_dataset(800, seed=9)
        w = {}
        for length in (1, "auto"):
            ci = block_bootstrap_ci(
                x, y, BootstrapConfig(block_length=length, seed=5, n_boot=599)
            )
            w[length] = float(ci.upper[0] - ci.lower[0])
        assert abs(w[1] - w["auto"]) / w["auto"] < 0.35

    def test_dependent_errors_still_bracket_truth(self):
        x, y = make_dataset(1000, seed=13, dependent=True)
        ci = block_bootstrap_ci(x, y, BootstrapConfig(seed=2, n_boot=399))
        assert ci.lower[0] < 1.5 < ci.upper[0]

    def test_too_many_refit_failures(self, monkeypatch):
        x, y = make_dataset(200, seed=4)
        monkeypatch.setattr(bootstrap_mod, "tls_from_gram", refits_failing(lambda r: r >= 0))
        with pytest.raises(NumericalError, match="199 of 199 resamples failed to refit"):
            block_bootstrap_ci(x, y, BootstrapConfig(n_boot=199))

    def test_failed_refits_are_counted_and_dropped(self, monkeypatch):
        x, y = make_dataset(200, seed=4)
        cfg = BootstrapConfig(n_boot=199, seed=1)
        full = block_bootstrap_ci(x, y, cfg)
        # 19 of 199 failures is within MAX_FAILURE_FRACTION, 20 is not.
        every_tenth = refits_failing(lambda r: (r % 10 == 3) & (r < 190))
        monkeypatch.setattr(bootstrap_mod, "tls_from_gram", every_tenth)
        ci = block_bootstrap_ci(x, y, cfg)
        assert (ci.failure_count, ci.n_boot_effective) == (19, 180)
        assert ci.point_estimate == full.point_estimate
        monkeypatch.setattr(bootstrap_mod, "tls_from_gram", refits_failing(lambda r: r < 20))
        with pytest.raises(NumericalError, match="20 of 199 resamples failed to refit"):
            block_bootstrap_ci(x, y, cfg)

    @pytest.mark.parametrize(
        "n, length", [(1000, 10), (1003, 7), (100, 1), (100, 100), (16000, 25)]
    )
    def test_resamples_match_their_definition(self, n, length):
        # Resample r joins blocks of `length` rows at starts drawn from
        # stream(derive_subseed(seed, r, 0)), cut to n rows.
        x, y = make_dataset(n, seed=6, dependent=True)
        rows = np.column_stack([x, y])
        n_boot, seed = 7, 4
        starts = bootstrap_mod._block_starts(n, length, seed, 0, n_boot)
        grams = bootstrap_mod._resample_grams(*bootstrap_mod._block_tables(rows, length), starts)
        n_blocks = -(-n // length)
        for r in range(n_boot):
            drawn = stream(derive_subseed(seed, r, 0)).integers(0, n - length + 1, size=n_blocks)
            assert np.array_equal(starts[:, r], drawn)
            idx = (drawn[:, None] + np.arange(length)).ravel()[:n]
            expected = rows[idx].T @ rows[idx]
            assert np.max(np.abs(grams[r] - expected)) <= 1e-13 * np.max(np.abs(expected))

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("n, length", [(1003, 7), (16001, 25), (100, 1)])
    def test_block_and_resample_grams_are_exactly_symmetric(self, n, length, c):
        # The TLS kernel reads only the lower triangle of each resample Gram.
        rows = 3.0 + np.random.default_rng(n + c).standard_normal((n, c))
        full, last = bootstrap_mod._block_tables(rows, length)
        grams = bootstrap_mod._resample_grams(full, last, bootstrap_mod._block_starts(n, length, 4, 0, 50))
        for table in (full, last, grams):
            assert np.array_equal(table, table.mT)

    @pytest.mark.parametrize(
        "n, length, lo, hi",
        [
            # high = 3 * 2^30: a quarter of all draws are rejected, so most
            # resamples are redrawn.
            (4 * 2**30 - 1, 2**30, 0, 40),
            # high = 2^31 + 1: about half of all draws are rejected, with
            # remainders that take every value, not only multiples of 2^30.
            (3 * 2**30, 2**30, 0, 40),
            # high = 2^32 exactly: no draw is rejected.
            (3 * 2**31 - 1, 2**31, 0, 20),
            # high > 2^32: numpy's 64-bit path, every resample redrawn.
            (2**33, 2**31 - 5, 0, 20),
            # high = 1: every start is 0.
            (50, 50, 0, 20),
            # 101 blocks, an odd count, in a chunk that starts at resample 5.
            (1001, 10, 5, 40),
        ],
    )
    def test_starts_match_integers_on_edge_ranges(self, n, length, lo, hi):
        starts = bootstrap_mod._block_starts(n, length, 9, lo, hi)
        n_blocks = -(-n // length)
        assert starts.shape == (n_blocks, hi - lo)
        for r in range(lo, hi):
            drawn = stream(derive_subseed(9, r, 0)).integers(0, n - length + 1, size=n_blocks)
            assert np.array_equal(starts[:, r - lo], drawn)

    @pytest.mark.parametrize("n, length, resamples", [(1000, 10, 999), (999, 10, 300), (16000, 25, 999)])
    def test_starts_stay_within_their_memory_bound(self, n, length, resamples):
        # STARTS_IN_FLIGHT is sized by this peak: 13 bytes per start, the
        # count rounded up to even, and 280 more per resample.
        n_blocks = -(-n // length)
        # Once untraced first, so that numpy's one-time set-up is not counted.
        bootstrap_mod._block_starts(n, length, 0, 0, resamples)
        tracemalloc.start()
        try:
            bootstrap_mod._block_starts(n, length, 0, 0, resamples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (13 * (n_blocks + n_blocks % 2) + 280) * resamples

    def test_interval_holds_one_chunk_of_grams(self, monkeypatch):
        # p = 2, n = 200: 40 blocks of 5 rows, chunks of 5000 resamples.
        errors = ErrorMatrixSpec((ma((1.0, 1.0)),) * 3, sigma2=0.25)
        design = repeating_block([[1.0, 0.0], [2.0, 1.0], [0.0, -1.0]])
        inst = synthesize(design, [1.5, -0.5], errors, 200, 7)
        monkeypatch.setattr(bootstrap_mod, "STARTS_IN_FLIGHT", 40 * 5000)
        chunks = []
        draw = bootstrap_mod._block_starts

        def counted(*args):
            chunks.append(args)
            return draw(*args)

        monkeypatch.setattr(bootstrap_mod, "_block_starts", counted)
        cfg = BootstrapConfig(n_boot=20_000, seed=1)
        # Once untraced first, so that numpy's one-time set-up is not counted.
        block_bootstrap_ci(inst.x, inst.y, BootstrapConfig(n_boot=199))
        chunks.clear()
        tracemalloc.start()
        try:
            block_bootstrap_ci(inst.x, inst.y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(chunks) == 4
        # The estimates and statuses of all resamples, then one chunk's
        # starts (as bounded above) and its Grams with their refit, under
        # 55 (p+1)^2 bytes a resample.  A refit of all 20 000 Grams at once
        # would take about 7 MB.
        assert peak <= 20_000 * (8 * 2 + 1) + 5000 * (13 * 40 + 280 + 55 * 9)

    def test_independent_of_chunking(self, monkeypatch):
        x, y = make_dataset(300, seed=6, dependent=True)
        cfg = BootstrapConfig(n_boot=199, seed=4)
        whole = block_bootstrap_ci(x, y, cfg).to_dict()
        # 300 // 6 = 50 blocks per resample: chunks of 7 resamples.
        monkeypatch.setattr(bootstrap_mod, "STARTS_IN_FLIGHT", 7 * 50)
        assert block_bootstrap_ci(x, y, cfg).to_dict() == whole

    def test_starts_no_thread(self, monkeypatch, draw_policy):
        x, y = make_dataset(300, seed=6, dependent=True)
        cfg = BootstrapConfig(block_length=1, n_boot=199, seed=4)
        whole = block_bootstrap_ci(x, y, cfg).to_dict()
        # Three usable CPUs, and 300 one-row blocks per resample in chunks
        # of 10 resamples: the draws would be spread over threads if the
        # bootstrap used any.
        draw_policy(cpus=3)
        monkeypatch.setattr(bootstrap_mod, "STARTS_IN_FLIGHT", 10 * 300)

        def refuse(thread):
            raise AssertionError(f"the bootstrap started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert block_bootstrap_ci(x, y, cfg).to_dict() == whole

    def test_to_dict_serializable(self):
        import json

        x, y = make_dataset(120)
        ci = block_bootstrap_ci(x, y, BootstrapConfig(n_boot=199))
        assert isinstance(ci, BootstrapCi)
        json.dumps(ci.to_dict())
