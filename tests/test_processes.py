import threading
import time

import numpy as np
import pytest
from scipy.signal import lfilter

import eivtls.processes
from eivtls.errors import InvalidParams
from eivtls.processes import (
    ErrorMatrixSpec,
    ErrorProcessSpec,
    ar1,
    generate_error_matrix,
    generate_sequence,
    iid_gaussian,
    ma,
    map_draws,
)
from eivtls.processes import _fill_column
from eivtls.seeding import column_subseed, stream

N = 100_000


class TestSpecValidation:
    def test_scale_positive(self):
        # No column has a scale of its own; a config may only restate 1.
        for scale in (0.0, -1.0, float("nan")):
            with pytest.raises(InvalidParams):
                ErrorProcessSpec.from_dict({"kind": "iid_gaussian", "scale": scale})

    def test_ar1_coefficient_bound(self):
        with pytest.raises(InvalidParams):
            ar1(1.0)
        with pytest.raises(InvalidParams):
            ar1(-1.5)

    def test_ma_needs_coefficients(self):
        with pytest.raises(InvalidParams):
            ma(())
        # A draw is divided by the 2-norm of the coefficients: their sum of
        # squares must be a finite float above the subnormal range, where
        # the norm loses precision (1.11x too large at 2e-162).
        for coeffs in (
            (0.0, 0.0),
            (1e200, 1e200),
            (1e-170, 1e-170),
            (2e-162, 2e-162),
            (1e-161, 1e-161),
        ):
            with pytest.raises(InvalidParams):
                ma(coeffs)
        assert ma((1e-150, 1e-150)).coeffs == (1e-150, 1e-150)

    def test_mixing_class_conventions(self):
        assert ma((1.0, 1.0)).mixing_class == "phi"
        assert ma((1.0, 1.0)).delta is None
        assert ar1(0.5, delta=2.0).mixing_class == "alpha"
        assert iid_gaussian().mixing_class == "independent"

    def test_convention_violations_rejected(self):
        with pytest.raises(InvalidParams):
            ErrorProcessSpec(kind="ma", coeffs=(1.0,), delta=1.0)

    def test_rate_and_moment_metadata_must_be_numbers(self):
        spec = ar1(0.5, delta=3, omega=1)
        assert (type(spec.delta), type(spec.omega)) == (float, float)
        with pytest.raises(InvalidParams):
            ar1(0.5, delta="x")
        with pytest.raises(InvalidParams):
            ar1(0.5, delta=float("nan"))
        with pytest.raises(InvalidParams):
            ma((1.0, 1.0), omega=[1.0])

    @pytest.mark.parametrize("omega", [0, -1.0, float("nan")])
    def test_moment_surplus_must_be_positive(self, omega):
        with pytest.raises(InvalidParams):
            ar1(0.5, delta=3.0, omega=omega)
        with pytest.raises(InvalidParams):
            ErrorProcessSpec.from_dict({"kind": "ma", "coeffs": [1.0], "omega": omega})

    @pytest.mark.parametrize("stationary", [False, None, 1, "true"])
    def test_stationary_must_be_true(self, stationary):
        with pytest.raises(InvalidParams):
            ErrorProcessSpec.from_dict({"kind": "iid_gaussian", "stationary": stationary})
        spec = ErrorProcessSpec.from_dict({"kind": "iid_gaussian", "stationary": True})
        assert spec.to_dict()["stationary"] is True

    def test_roundtrip_dict(self):
        for spec in (iid_gaussian(omega=2.0), ma((1.0, 0.6, 0.3), omega=1.0), ar1(0.5, delta=3.0)):
            assert spec.to_dict()["scale"] == 1.0
            assert ErrorProcessSpec.from_dict(spec.to_dict()) == spec
            without = {k: v for k, v in spec.to_dict().items() if k != "scale"}
            assert ErrorProcessSpec.from_dict(without) == spec


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
        x = generate_sequence(ar1(0.0), N, 13)
        assert 0.96 < x.var() < 1.04

    def test_ar1_autocorrelation(self):
        x = generate_sequence(ar1(0.5), N, 14)
        acf1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(acf1 - 0.5) < 0.02

    def test_zero_mean_envelope(self):
        for spec in (iid_gaussian(), ma((1.0, 0.6, 0.3)), ar1(0.7)):
            x = generate_sequence(spec, N, 15)
            assert abs(x.mean()) < 5.0 / np.sqrt(N)

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


class TestErrorMatrix:
    def test_sigma2_positive_required(self):
        with pytest.raises(InvalidParams):
            ErrorMatrixSpec((iid_gaussian(), iid_gaussian()), sigma2=0.0)

    @pytest.mark.parametrize(
        "sigma2", [True, False, np.True_, "1.0", None, [1.0], -1.0, float("nan"), float("inf")]
    )
    def test_sigma2_must_be_a_positive_number(self, sigma2):
        d = ErrorMatrixSpec((iid_gaussian(), iid_gaussian())).to_dict()
        d["sigma2"] = sigma2
        with pytest.raises(InvalidParams, match="sigma2"):
            ErrorMatrixSpec.from_dict(d)

    @pytest.mark.parametrize("sigma2", [2, np.int64(2), np.float32(2.0)])
    def test_sigma2_is_stored_as_a_float(self, sigma2):
        d = ErrorMatrixSpec((iid_gaussian(), iid_gaussian())).to_dict()
        d["sigma2"] = sigma2
        stored = ErrorMatrixSpec.from_dict(d).to_dict()["sigma2"]
        assert type(stored) is float and stored == 2.0

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
        spec = ErrorMatrixSpec((iid_gaussian(), ar1(0.5)), sigma2=4.0)
        w = generate_error_matrix(spec, N, 23)
        for j in range(2):
            assert 3.84 < w[:, j].var() < 4.16

    def test_config_column_scale_must_be_one(self):
        d = ErrorMatrixSpec((iid_gaussian(), iid_gaussian()), sigma2=4.0).to_dict()
        assert ErrorMatrixSpec.from_dict(d).sigma2 == 4.0
        d["columns"][1]["scale"] = 5.0
        with pytest.raises(InvalidParams, match="sigma2"):
            ErrorMatrixSpec.from_dict(d)

    def test_deterministic(self):
        spec = ErrorMatrixSpec((ar1(0.2), iid_gaussian()), sigma2=1.0)
        assert np.array_equal(
            generate_error_matrix(spec, 500, 9), generate_error_matrix(spec, 500, 9)
        )

    def test_one_stream_per_column(self, monkeypatch):
        # One seed builds its column streams directly, without the many-seed path.
        made = []

        def counted(seed):
            made.append(seed)
            return stream(seed)

        def refused(seeds):
            raise AssertionError("one seed needs no vectorised seeding")

        monkeypatch.setattr(eivtls.processes, "stream", counted)
        monkeypatch.setattr(eivtls.processes, "pcg64_seed_words", refused)
        spec = ErrorMatrixSpec((ar1(0.3), ma((1.0, 1.0)), iid_gaussian()), sigma2=1.0)
        generate_error_matrix(spec, 50, 7)
        assert made == [column_subseed(7, j) for j in (1, 2, 3)]

    @pytest.mark.parametrize("seed", [-5, 2**64 + 3, 2**63 + 11])
    def test_seeds_are_taken_modulo_2_64(self, seed):
        # The reference seeds each column through stream(), numpy's SeedSequence,
        # from the sub-seed of the seed reduced modulo 2^64.
        spec = ErrorMatrixSpec((ma((1.0, 0.5)), ar1(0.6), iid_gaussian()), sigma2=0.7)
        w = generate_error_matrix(spec, 300, seed)
        for j, (col, row) in enumerate(zip(spec.column_specs, w.T), start=1):
            ref = np.empty((1, 300))
            _fill_column(col, np.sqrt(0.7), [stream(column_subseed(seed % 2**64, j))], ref)
            assert np.array_equal(row, ref[0])


class TestErrorBlocks:
    """``map_draws`` keeping its blocks: the many-seed form of ``generate_error_matrix``."""

    SEEDS = [9, 2**63 + 11, 0, 77]

    @staticmethod
    def blocks(spec, n, seeds):
        seeds = np.array([s % 2**64 for s in seeds], dtype=np.uint64)
        return np.concatenate(map_draws(*spec.column_draws(seeds), n, lambda b: b))

    @pytest.mark.parametrize(
        "col", [iid_gaussian(), ma((1.0, 0.5, -0.3)), ar1(0.6)], ids=["iid", "ma", "ar1"]
    )
    def test_rows_match_generate_error_matrix(self, col):
        spec = ErrorMatrixSpec((col, col, col), sigma2=0.7)
        seeds = [-5, 2**63 + 11, 2**64 + 3]
        blocks = self.blocks(spec, 300, seeds)
        assert blocks.shape == (3, 3, 300)
        for block, seed in zip(blocks, seeds):
            assert np.array_equal(block, generate_error_matrix(spec, 300, seed).T)

    def test_against_one_dimensional_filters(self):
        # The per-column formulas the block filters replace: np.convolve for
        # MA (summation order differs, so a tolerance of a few ulps) and a
        # 1-d lfilter after a scalar start draw for AR(1) (bit-identical).
        sd, n, seed = np.sqrt(0.7), 300, 9
        c = np.array([1.0, 0.5, -0.3])
        spec = ErrorMatrixSpec((ma(tuple(c)), ar1(0.6)), sigma2=0.7)
        block = self.blocks(spec, n, [seed])[0]
        eta = stream(column_subseed(seed, 1)).standard_normal(n + 2)
        ref = sd * np.convolve(eta, c, mode="valid") / np.linalg.norm(c)
        atol = 8 * np.finfo(float).eps * np.max(np.abs(ref))
        np.testing.assert_allclose(block[0], ref, rtol=0, atol=atol)
        rng = stream(column_subseed(seed, 2))
        x0 = sd * rng.standard_normal()
        innov = sd * np.sqrt(1.0 - 0.36) * rng.standard_normal(n)
        ref, _ = lfilter([1.0], [1.0, -0.6], innov, zi=np.array([0.6 * x0]))
        assert np.array_equal(block[1], ref)

    def test_reused_generator_draws_the_same_blocks(self, monkeypatch):
        # Each step reuses one generator for every row of its chunk.
        spec = ErrorMatrixSpec((ar1(0.3), ma((1.0, 1.0)), iid_gaussian()), sigma2=0.4)
        whole = np.stack([generate_error_matrix(spec, 200, s).T for s in self.SEEDS])
        seeds = np.array(self.SEEDS, dtype=np.uint64)
        monkeypatch.setattr(eivtls.processes, "_usable_cpus", lambda: 1)
        for per_chunk in (1, 3):
            monkeypatch.setattr(eivtls.processes, "CHUNK_ELEMENTS", per_chunk * 3 * 200)
            shapes = []

            def reduce(block):
                shapes.append(block.shape)
                return block.copy()

            chunks = map_draws(*spec.column_draws(seeds), 200, reduce)
            assert shapes == [(min(per_chunk, 4 - lo), 3, 200) for lo in range(0, 4, per_chunk)]
            assert np.array_equal(np.concatenate(chunks), whole)

    def test_any_split_of_the_seeds_gives_the_same_blocks(self):
        spec = ErrorMatrixSpec((ar1(0.3), ma((1.0, 1.0)), iid_gaussian()), sigma2=1.0)
        whole = self.blocks(spec, 200, self.SEEDS)
        parts = [self.blocks(spec, 200, self.SEEDS[i : i + 3]) for i in (0, 3)]
        assert np.array_equal(np.concatenate(parts), whole)
        assert map_draws(*spec.column_draws(np.array([], dtype=np.uint64)), 200, len) == []

    def test_one_generator_draws_every_row(self, monkeypatch):
        made = []

        def counted(seed):
            made.append(seed)
            return stream(seed)

        monkeypatch.setattr(eivtls.processes, "stream", counted)
        monkeypatch.setattr(eivtls.processes, "_usable_cpus", lambda: 1)
        spec = ErrorMatrixSpec((ar1(0.3), ma((1.0, 1.0)), iid_gaussian()), sigma2=1.0)
        for per_chunk in (4, 3, 1):
            monkeypatch.setattr(eivtls.processes, "CHUNK_ELEMENTS", per_chunk * 3 * 50)
            made.clear()
            steps = map_draws(*spec.column_draws(np.array(self.SEEDS, dtype=np.uint64)), 50, len)
            assert len(made) == len(steps) == -(-4 // per_chunk)

    def test_n_positive(self):
        with pytest.raises(InvalidParams):
            generate_error_matrix(ErrorMatrixSpec((iid_gaussian(),) * 2), 0, 1)


class TestMapChunks:
    SPEC = ErrorMatrixSpec((ar1(0.3), ma((1.0, 1.0)), iid_gaussian()), sigma2=1.0)
    SEEDS = np.arange(23, dtype=np.uint64) * 7919 + 3

    def draws(self, reduce, n=40):
        return map_draws(*self.SPEC.column_draws(self.SEEDS), n, reduce)

    def test_gram_stack_independent_of_chunking(self, monkeypatch):
        full = np.concatenate(self.draws(lambda b: b.copy()))
        grams = full @ full.mT
        for workers in (1, 2, 3):
            monkeypatch.setattr(eivtls.processes, "_usable_cpus", lambda: workers)
            monkeypatch.setattr(eivtls.processes, "CHUNK_ELEMENTS", workers * 7 * 3 * 40)
            lock, seen = threading.Lock(), []

            def reduce(block):
                # Which blocks this chunk holds, found by its first row.
                lo = next(r for r in range(len(full)) if np.array_equal(full[r], block[0]))
                with lock:
                    seen.append((threading.current_thread(), lo, len(block)))
                return block @ block.mT

            assert np.array_equal(np.concatenate(self.draws(reduce)), grams)
            # Chunks of at most 7 blocks in consecutive ranges from 0, on at
            # most one thread per usable CPU; one CPU draws on the calling thread.
            assert sorted((lo, k) for _, lo, k in seen) == [(0, 7), (7, 7), (14, 7), (21, 2)]
            threads = {thread for thread, _, _ in seen}
            assert len(threads) <= workers
            if workers == 1:
                assert threads == {threading.current_thread()}

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        whole = np.concatenate(self.draws(lambda b: b.copy()))
        monkeypatch.setattr(eivtls.processes, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(eivtls.processes, "CHUNK_ELEMENTS", 5 * 3 * 40)

        def refuse(thread):
            raise AssertionError(f"map_draws started thread {thread.name} on one CPU")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        chunks = self.draws(lambda b: b.copy())
        assert len(chunks) == 5
        assert np.array_equal(np.concatenate(chunks), whole)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_reduces_in_flight_at_most_usable_cpus(self, monkeypatch, workers):
        # The memory budget: at most one chunk per usable CPU is held at once.
        monkeypatch.setattr(eivtls.processes, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(eivtls.processes, "CHUNK_ELEMENTS", workers * 2 * 3 * 40)
        lock, running, peak = threading.Lock(), [0], [0]

        def reduce(block):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.002)
            with lock:
                running[0] -= 1
            return len(block)

        assert self.draws(reduce) == [2] * 11 + [1]
        assert 1 <= peak[0] <= workers
