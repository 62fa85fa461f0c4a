import concurrent.futures
import itertools
import threading
import time
from dataclasses import fields

import numpy as np
import pytest
from scipy.signal import lfilter

import eivtls.processes
from eivtls.errors import InvalidParams
from eivtls.mixing import check_assumptions
from eivtls.processes import (
    KINDS,
    ErrorMatrixSpec,
    ErrorProcessSpec,
    Kind,
    ar1,
    generate_error_matrix,
    generate_sequence,
    iid_gaussian,
    ma,
    map_draws,
)
from eivtls.seeding import column_subseed, streams

from conftest import exemplar, traced_peak

N = 100_000

# The two keys a column config may only restate, each with values it refuses:
# a column's sd is set by its draw, and every generator is stationary.
FIXED_KEYS = {
    "scale": (1.0, [0.0, -1.0, 5.0, float("nan"), True, "1.0"]),
    "stationary": (True, [False, None, 1, "true"]),
}


class TestSpecValidation:
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

    def test_delta_must_be_finite(self):
        for delta in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(InvalidParams, match="delta must be finite"):
                ar1(0.5, delta=delta)

    # Every field that a kind's row does not list, so a new field is tried too.
    @pytest.mark.parametrize(
        "kind, field",
        [(kind, f.name) for kind, row in KINDS.items()
         for f in fields(ErrorProcessSpec)[1:] if f.name not in row.fields],
    )
    def test_fields_a_kind_does_not_read_are_refused(self, kind, field):
        base = {"iid_gaussian": {}, "ma": {"coeffs": [1.0, 1.0]}, "ar1": {"a": 0.5}}[kind]
        d = {"kind": kind, **base, field: [1.0] if field == "coeffs" else 0.5}
        with pytest.raises(InvalidParams, match=f"kind '{kind}' takes no {field}"):
            ErrorProcessSpec.from_dict(d)
        with pytest.raises(InvalidParams, match=f"takes no {field}"):
            ErrorProcessSpec(**d)

    def test_a_new_kind_is_one_row(self, monkeypatch):
        # A (1, -1) difference filter, x_t = sd (eta_t - eta_{t-1}) / sqrt(2):
        # phi-mixing with range 1, drawn with a lead of 1.
        def difference(spec, raw, sd, out):
            np.subtract(raw[:, 1:], raw[:, :-1], out=out)
            out *= sd / np.sqrt(2.0)

        def one(spec):
            return 1

        row = Kind(("omega",), "phi", lambda spec: None, one, one, difference)
        monkeypatch.setitem(KINDS, "diff", row)
        with pytest.raises(InvalidParams, match="kind 'diff' takes no a"):
            ErrorProcessSpec.from_dict({"kind": "diff", "a": 0.5})
        spec = ErrorProcessSpec.from_dict({"kind": "diff", "omega": 1.0})
        eta = np.random.default_rng(5).standard_normal(101)
        expected = (eta[1:] - eta[:-1]) * (1.0 / np.sqrt(2.0))
        assert np.array_equal(generate_sequence(spec, 100, 5), expected)
        matrix = ErrorMatrixSpec((spec, iid_gaussian(), spec), sigma2=0.7)
        seeds = [3, 2**63 + 1, 0]
        blocks = map_draws(*matrix.column_draws(np.array(seeds, dtype=np.uint64)), 60, np.copy)
        for block, seed in zip(np.concatenate(blocks), seeds):
            assert np.array_equal(block, generate_error_matrix(matrix, 60, seed).T)
        report = check_assumptions("AN-phi", exemplar("phi", (1.0, -2.0)).design, matrix)
        details = {check.name: (check.passed, check.detail) for check in report.checks}
        assert details["phi-mixing-class"][0] and report.passed
        assert details["sqrt-phi-summable"] == (
            True, "phi(n) = 0 beyond lag 1, so the sum of sqrt(phi(n)) is finite"
        )

    @pytest.mark.parametrize("coeffs", ["123", 5, {"c": 1.0}, [[1.0, 1.0]]])
    def test_coefficients_must_be_a_list_of_numbers(self, coeffs):
        # "123" once drew an MA(2) with coefficients (1, 2, 3).
        with pytest.raises(InvalidParams, match="coeffs"):
            ma(coeffs)
        spec = ma(np.array([1, 2]))
        assert spec.coeffs == (1.0, 2.0) and type(spec.coeffs[0]) is float

    @pytest.mark.parametrize("omega", [0, -1.0, float("nan"), float("inf")])
    def test_moment_surplus_must_be_positive(self, omega):
        with pytest.raises(InvalidParams):
            ar1(0.5, delta=3.0, omega=omega)
        with pytest.raises(InvalidParams):
            ErrorProcessSpec.from_dict({"kind": "ma", "coeffs": [1.0], "omega": omega})

    @pytest.mark.parametrize("key", sorted(FIXED_KEYS))
    def test_fixed_key_may_only_restate_its_value(self, key):
        value, refused = FIXED_KEYS[key]
        for spec in (iid_gaussian(omega=2.0), ma((1.0, 0.6, 0.3), omega=1.0), ar1(0.5, delta=3.0)):
            d = spec.to_dict()
            assert d[key] == value and type(d[key]) is type(value)
            del d[key]
            assert ErrorProcessSpec.from_dict(d) == spec
        matrix = ErrorMatrixSpec((iid_gaussian(), iid_gaussian()), sigma2=4.0).to_dict()
        for bad in refused:
            with pytest.raises(InvalidParams, match=key):
                ErrorProcessSpec.from_dict({"kind": "iid_gaussian", key: bad})
            matrix["columns"][1][key] = bad
            with pytest.raises(InvalidParams, match=key):
                ErrorMatrixSpec.from_dict(matrix)


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
        # A seed is taken modulo 2^64: iid draws are the normals of numpy's
        # Generator(PCG64(seed)) of the reduced seed.
        for seed in (-5, 2**64 + 3):
            expected = np.random.default_rng(seed % 2**64).standard_normal(50)
            assert np.array_equal(generate_sequence(iid_gaussian(), 50, seed), expected)

    def test_n_positive(self):
        with pytest.raises(InvalidParams):
            generate_sequence(iid_gaussian(), 0, 1)


class TestErrorMatrix:
    def test_at_least_one_column_required(self):
        with pytest.raises(InvalidParams, match="need at least one error column"):
            ErrorMatrixSpec(())

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

    def test_deterministic(self):
        spec = ErrorMatrixSpec((ar1(0.2), iid_gaussian()), sigma2=1.0)
        assert np.array_equal(
            generate_error_matrix(spec, 500, 9), generate_error_matrix(spec, 500, 9)
        )


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

    @pytest.mark.parametrize("seed", [9, -5, 2**64 + 3, 2**63 + 11])
    def test_against_one_dimensional_filters(self, seed):
        # The per-column formulas the block filters replace, each column drawn
        # from numpy's Generator(PCG64(sub-seed)), the sub-seed of the seed
        # reduced modulo 2^64: np.convolve for MA (summation order differs,
        # so a tolerance of a few ulps), a 1-d lfilter after a scalar start
        # draw for AR(1) and a scaled draw for iid (both bit-identical).
        sd, n, base = np.sqrt(0.7), 300, seed % 2**64
        c = np.array([1.0, 0.5, -0.3])
        spec = ErrorMatrixSpec((ma(tuple(c)), ar1(0.6), iid_gaussian()), sigma2=0.7)
        block = generate_error_matrix(spec, n, seed).T
        eta = np.random.default_rng(column_subseed(base, 1)).standard_normal(n + 2)
        ref = sd * np.convolve(eta, c, mode="valid") / np.linalg.norm(c)
        atol = 8 * np.finfo(float).eps * np.max(np.abs(ref))
        np.testing.assert_allclose(block[0], ref, rtol=0, atol=atol)
        rng = np.random.default_rng(column_subseed(base, 2))
        x0 = sd * rng.standard_normal()
        innov = sd * np.sqrt(1.0 - 0.36) * rng.standard_normal(n)
        ref, _ = lfilter([1.0], [1.0, -0.6], innov, zi=np.array([0.6 * x0]))
        assert np.array_equal(block[1], ref)
        third = np.random.default_rng(column_subseed(base, 3)).standard_normal(n)
        assert np.array_equal(block[2], sd * third)

    def test_any_split_of_the_seeds_gives_the_same_blocks(self):
        spec = ErrorMatrixSpec((ar1(0.3), ma((1.0, 1.0)), iid_gaussian()), sigma2=1.0)
        whole = self.blocks(spec, 200, self.SEEDS)
        parts = [self.blocks(spec, 200, self.SEEDS[i : i + 3]) for i in (0, 3)]
        assert np.array_equal(np.concatenate(parts), whole)
        assert map_draws(*spec.column_draws(np.array([], dtype=np.uint64)), 200, len) == []

    def test_one_generator_draws_every_row(self, monkeypatch, draw_policy):
        # Each row's generator comes from one many-seed iterator per chunk and column.
        chunks = []

        def counted_streams(words):
            chunks.append(words.shape[1])
            return streams(words)

        monkeypatch.setattr(eivtls.processes, "streams", counted_streams)
        draw_policy(cpus=1)
        spec = ErrorMatrixSpec((ar1(0.3), ma((1.0, 1.0)), iid_gaussian()), sigma2=1.0)
        for per_chunk in (4, 3, 1):
            draw_policy(elements=per_chunk * 3 * 50)
            chunks.clear()
            steps = map_draws(*spec.column_draws(np.array(self.SEEDS, dtype=np.uint64)), 50, len)
            assert len(chunks) == 3 * len(steps) == 3 * -(-4 // per_chunk)
            assert sum(chunks) == 3 * 4

    def test_n_positive(self):
        with pytest.raises(InvalidParams):
            generate_error_matrix(ErrorMatrixSpec((iid_gaussian(),) * 2), 0, 1)


class TestMapChunks:
    SPEC = ErrorMatrixSpec((ar1(0.3), ma((1.0, 1.0)), iid_gaussian()), sigma2=1.0)
    SEEDS = np.arange(23, dtype=np.uint64) * 7919 + 3

    def draws(self, reduce, spec=SPEC, n=40):
        return map_draws(*spec.column_draws(self.SEEDS), n, reduce)

    @pytest.mark.parametrize(
        "spec, n, floats",
        [(SPEC, 40, 3 * 40), (ErrorMatrixSpec((ma((1.0,) * 3001),)), 500, 3000)],
        ids=["three-columns", "ma3000-n500"],
    )
    def test_blocks_independent_of_chunking(self, draw_policy, spec, n, floats):
        # A chunk counts C n + max(0, lead - n) floats a block: an MA(3000)
        # column at n = 500 draws a lead longer than n into its own scratch.
        # The default budget draws all 23 blocks in one chunk.
        full = np.concatenate(self.draws(lambda b: b.copy(), spec, n))
        for rows, workers in itertools.product((1, 7, 23), (1, 2, 3)):
            draw_policy(elements=rows * floats, cpus=workers)
            lock, seen = threading.Lock(), []

            def reduce(block):
                # Which blocks this chunk holds, found by its first row.
                lo = next((r for r in range(len(full)) if np.array_equal(full[r], block[0])), None)
                with lock:
                    seen.append((threading.current_thread(), lo, len(block)))
                return block.copy()

            assert np.array_equal(np.concatenate(self.draws(reduce, spec, n)), full)
            # Chunks of at most `rows` blocks in consecutive ranges from 0, on
            # at most one thread per usable CPU; one CPU or one chunk draws on
            # the calling thread.
            chunks = [(lo, min(rows, 23 - lo)) for lo in range(0, 23, rows)]
            assert sorted((lo, k) for _, lo, k in seen) == chunks
            threads = {thread for thread, _, _ in seen}
            assert len(threads) <= min(workers, len(chunks))
            if workers == 1 or len(chunks) == 1:
                assert threads == {threading.current_thread()}

    def test_chunk_shapes_do_not_depend_on_the_cpu_count(self, monkeypatch, draw_policy):
        # The budget is per chunk: the CPU count sets only how many threads
        # draw the chunks, never how the blocks are cut into them.
        draw_policy(elements=5 * 3 * 40)
        widths = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        for cpus in (1, 2, 3, 32):
            draw_policy(cpus=cpus)
            widths.clear()
            assert self.draws(lambda b: b.shape) == [(5, 3, 40)] * 4 + [(3, 3, 40)]
            assert widths == ([] if cpus == 1 else [min(cpus, 5)])

    def test_usable_cpus_without_an_affinity_call(self, monkeypatch):
        monkeypatch.delattr(eivtls.processes.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(eivtls.processes.os, "cpu_count", lambda: 5)
        assert eivtls.processes._usable_cpus() == 5

    def test_one_cpu_starts_no_thread(self, monkeypatch, draw_policy):
        whole = np.concatenate(self.draws(lambda b: b.copy()))
        draw_policy(elements=5 * 3 * 40, cpus=1)

        def refuse(thread):
            raise AssertionError(f"map_draws started thread {thread.name} on one CPU")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        chunks = self.draws(lambda b: b.copy())
        assert len(chunks) == 5
        assert np.array_equal(np.concatenate(chunks), whole)

    def test_one_seed_starts_no_thread(self, monkeypatch, draw_policy):
        # One seed is one chunk, drawn on the calling thread whatever the CPU count.
        whole = generate_error_matrix(self.SPEC, 40, 3)
        draw_policy(cpus=4)

        def refuse(thread):
            raise AssertionError(f"a one-seed draw started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert np.array_equal(generate_error_matrix(self.SPEC, 40, 3), whole)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_reduces_in_flight_at_most_usable_cpus(self, draw_policy, workers):
        # Memory in flight: at most one chunk per pool thread is held at once.
        draw_policy(elements=2 * 3 * 40, cpus=workers)
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

    def test_budget_counts_the_lead(self, draw_policy):
        # A row of MA(q) takes q + n normals, so a chunk counts max(n, q)
        # floats a row: an MA(2000) column at n = 250 is drawn 8 rows a chunk
        # against MA(2)'s 64, and peaks within the MA(2) column's peak.
        draw_policy(elements=8 * 2000, cpus=1)
        seeds = np.arange(64, dtype=np.uint64)[None, :]

        def peak(q):
            specs = [ma((1.0,) * (q + 1))]
            map_draws(specs, 1.0, seeds[:, :1], 250, len)
            return traced_peak(map_draws, specs, 1.0, seeds, 250, len)[1]

        assert peak(2000) <= peak(2)

    def test_budget_counts_a_long_lead_once(self, draw_policy):
        # Only one column's (lead + n) scratch is held at a time, so three
        # MA(2000) columns at n = 250 count 3 * 250 + 1750 floats a block:
        # 8 blocks a chunk, and a peak within three MA(2) columns' peak.
        draw_policy(elements=20_000, cpus=1)
        seeds = np.arange(3 * 64, dtype=np.uint64).reshape(3, 64)

        def peak(q):
            specs = [ma((1.0,) * (q + 1))] * 3
            map_draws(specs, 1.0, seeds[:, :1], 250, len)
            return traced_peak(map_draws, specs, 1.0, seeds, 250, len)

        sizes, long_peak = peak(2000)
        assert sizes == [8] * 8
        assert long_peak <= peak(2)[1]
