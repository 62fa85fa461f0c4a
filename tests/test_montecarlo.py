import dataclasses
import json
import threading

import numpy as np
import pytest

from eivtls import montecarlo, processes
from eivtls.errors import InvalidParams, NumericalError
from eivtls.estimator import FIT_OK, tls_fit
from eivtls.linalg import MAX_LENGTH
from eivtls.model import repeating_block, synthesize
from eivtls.montecarlo import (
    ConsistencyReport,
    ExperimentConfig,
    LongRunReport,
    NormalityExperimentReport,
    clt_check,
    derive_subseed,
    run_consistency,
    run_long_run_check,
    run_normality,
    _fit_cell,
    _replicate,
)
from eivtls.presets import default_config, default_design, default_errors
from eivtls.processes import ErrorMatrixSpec, ar1, generate_sequence, iid_gaussian, ma


def small_config(sigma2=1.0, reps=120, n_grid=(40, 80), seed=7):
    errors = ErrorMatrixSpec((iid_gaussian(), iid_gaussian()), sigma2=sigma2)
    return ExperimentConfig(
        design=repeating_block([[1.0], [2.0]]),
        beta=np.array([1.5]),
        errors=errors,
        n_grid=n_grid,
        replications=reps,
        master_seed=seed,
        theorem="CON-alpha",
    )


class TestDeriveSubseed:
    def test_deterministic(self):
        assert derive_subseed(5, 3, 1) == derive_subseed(5, 3, 1)

    def test_sensitive_to_each_argument(self):
        base = derive_subseed(5, 3, 1)
        assert derive_subseed(6, 3, 1) != base
        assert derive_subseed(5, 4, 1) != base
        assert derive_subseed(5, 3, 2) != base

    def test_no_collisions_over_large_grid(self):
        seen = {
            derive_subseed(123, rep, cell)
            for rep in range(100_000)
            for cell in range(10)
        }
        assert len(seen) == 1_000_000


class TestExperimentConfig:
    def test_grid_must_ascend(self):
        with pytest.raises(InvalidParams):
            small_config(n_grid=(80, 40))
        with pytest.raises(InvalidParams):
            small_config(n_grid=(40, 40))

    def test_replication_floor(self):
        with pytest.raises(InvalidParams):
            small_config(reps=99)

    def test_dimension_consistency(self):
        errors = ErrorMatrixSpec((iid_gaussian(),) * 3, sigma2=1.0)
        with pytest.raises(InvalidParams):
            ExperimentConfig(
                design=repeating_block([[1.0], [2.0]]),
                beta=np.array([1.0]),
                errors=errors,
                n_grid=(40,),
                replications=100,
                master_seed=0,
            )

    def test_n_floor(self):
        with pytest.raises(InvalidParams):
            small_config(n_grid=(2, 40))

    def test_counts_are_whole_numbers(self):
        cfg = small_config(reps=120.0, seed=np.int64(7))
        assert (type(cfg.replications), type(cfg.master_seed)) == (int, int)
        assert cfg.to_dict()["replications"] == 120
        for changes in ({"reps": 100.5}, {"reps": "120"}, {"seed": 7.5}, {"seed": True}):
            with pytest.raises(InvalidParams, match="must be a whole number"):
                small_config(**changes)

    @pytest.mark.parametrize("value", ["1.5", True], ids=["str", "bool"])
    def test_numeric_fields_refuse_strings_and_bools(self, value):
        d = small_config().to_dict()
        for key, bad in (("beta", [value]), ("n_grid", [value, 80])):
            with pytest.raises(InvalidParams, match="must be"):
                ExperimentConfig.from_dict({**d, key: bad})
        for key in ("replications", "master_seed"):
            with pytest.raises(InvalidParams, match=f"{key} must be a whole number"):
                ExperimentConfig.from_dict({**d, key: value})
        with pytest.raises(InvalidParams, match="sigma2 must be a number"):
            ExperimentConfig.from_dict({**d, "errors": {**d["errors"], "sigma2": value}})

    def test_nested_objects_must_be_objects(self):
        d = small_config().to_dict()
        for key in ("design", "errors"):
            with pytest.raises(InvalidParams, match=f"{key} must be a JSON object"):
                ExperimentConfig.from_dict({**d, key: "repeating_block"})
        with pytest.raises(InvalidParams, match="config must be a JSON object"):
            ExperimentConfig.from_dict([d])

    def test_sizes_no_array_can_hold_are_refused(self):
        for changes in ({"n_grid": (40, MAX_LENGTH + 1)}, {"reps": MAX_LENGTH + 1}):
            with pytest.raises(InvalidParams, match="at most"):
                small_config(**changes)

    def test_dict_roundtrip(self):
        cfg = default_config("alpha", beta=(1.0, -2.0))
        rt = ExperimentConfig.from_dict(cfg.to_dict())
        assert rt.to_dict() == cfg.to_dict()

    def test_from_dict_missing_key(self):
        d = small_config().to_dict()
        del d["beta"]
        with pytest.raises(InvalidParams):
            ExperimentConfig.from_dict(d)


class TestRunConsistency:
    def test_near_noiseless_recovery(self):
        cfg = small_config(sigma2=1e-12)
        report = run_consistency(cfg)
        for cell in report.cells:
            assert cell.successes == cfg.replications
            assert cell.median_beta_err < 1e-5
            assert cell.median_lambda_dev < 1e-5

    def test_errors_shrink_with_n(self):
        cfg = small_config(sigma2=0.25, reps=200, n_grid=(50, 800))
        report = run_consistency(cfg)
        assert report.cells[1].median_beta_err < report.cells[0].median_beta_err
        assert report.kind == "consistency"
        assert report.assumptions.passed

    def test_assumption_gate(self):
        errors = ErrorMatrixSpec((ar1(0.5, delta=1.0, omega=1.0),) * 2, sigma2=1.0)
        cfg = ExperimentConfig(
            design=default_design(1),
            beta=np.array([1.0]),
            errors=errors,
            n_grid=(100,),
            replications=100,
            master_seed=0,
            theorem="AN-alpha",
        )
        with pytest.raises(InvalidParams):
            run_consistency(cfg)
        report = run_consistency(cfg, override_assumptions=True)
        assert report.assumption_override
        assert not report.assumptions.passed

    def test_thread_count_does_not_change_report(self, draw_policy):
        cfg = small_config(reps=100, n_grid=(40,))
        # 2 n = 80 floats per replication: chunks of 15 replications on the
        # calling thread against chunks of 5 on three workers.
        reports = []
        for rows, workers in ((15, 1), (5, 3)):
            draw_policy(elements=rows * 80, cpus=workers)
            reports.append(json.dumps(run_consistency(cfg).to_dict()))
        assert reports[0] == reports[1]


class TestRunNormality:
    def test_gaussian_iid_case(self):
        cfg = small_config(sigma2=0.5, reps=400, n_grid=(600,))
        report = run_normality(cfg)
        assert report.kind == "normality"
        assert report.normality_n == 600
        assert report.deviations.shape == (400, 1)
        assert report.mean_within_4se
        assert report.normality.mardia_skewness_pvalue > 0.001

    def test_thread_invariance(self, draw_policy):
        cfg = small_config(reps=150, n_grid=(200,))
        # 2 n = 400 floats per replication: chunks of 21 replications on the
        # calling thread against chunks of 7 on three workers.
        reports = []
        for rows, workers in ((21, 1), (7, 3)):
            draw_policy(elements=rows * 400, cpus=workers)
            reports.append(run_normality(cfg))
        a, b = reports
        assert np.array_equal(a.deviations, b.deviations)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_too_few_replications_are_refused_before_the_draw(self, monkeypatch):
        # Mardia's tests need 20 p estimates: at p = 6, 100 replications are
        # refused before any of them is drawn.
        def refuse(cfg, cell):
            raise AssertionError("replications drawn that the battery cannot test")

        monkeypatch.setattr(montecarlo, "_replicate", refuse)
        cfg = ExperimentConfig(
            design=repeating_block(np.vstack([np.eye(6), np.ones(6)]).tolist()),
            beta=np.ones(6),
            errors=ErrorMatrixSpec((ma((1.0, 0.6, 0.3), omega=1.0),) * 7),
            n_grid=(250,),
            replications=100,
            master_seed=7,
            theorem="AN-phi",
        )
        with pytest.raises(InvalidParams, match="at least 120 replications, have 100$"):
            run_normality(cfg)


class TestRunLongRun:
    def test_zero_direction_gives_zero(self):
        cfg = small_config(reps=100, n_grid=(60,))
        report = run_long_run_check(cfg, t=np.zeros(2))
        assert report.long_run_table[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_direction_dimension_checked(self):
        cfg = small_config(reps=100, n_grid=(60,))
        with pytest.raises(InvalidParams):
            run_long_run_check(cfg, t=np.ones(3))

    def test_values_positive_and_stabilizing(self):
        cfg = small_config(sigma2=0.5, reps=300, n_grid=(200, 800))
        report = run_long_run_check(cfg, t=np.array([1.0, 1.0]))
        vals = [v for _, v in report.long_run_table]
        assert all(v > 0 for v in vals)
        assert abs(vals[1] - vals[0]) / vals[0] < 0.5


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
            processes, "_fill_column", lambda spec, sd, words, out: out.fill(0.0)
        )
        with pytest.raises(NumericalError, match="partial-sum variance estimate is not positive"):
            clt_check(iid_gaussian(), n=1000, replications=500, seed=0)


class TestReports:
    @pytest.mark.parametrize(
        "cls", [ConsistencyReport, NormalityExperimentReport, LongRunReport]
    )
    def test_no_optional_fields(self, cls):
        for field in dataclasses.fields(cls):
            assert "None" not in str(field.type), field.name

    def test_report_kinds_and_header_keys(self):
        cfg = small_config(reps=100, n_grid=(40, 80))
        reports = [
            run_consistency(cfg),
            run_normality(cfg),
            run_long_run_check(cfg, t=np.ones(2)),
        ]
        assert [type(r) for r in reports] == [
            ConsistencyReport, NormalityExperimentReport, LongRunReport,
        ]
        assert [r.kind for r in reports] == ["consistency", "normality", "long-run"]
        head = ["kind", "config", "master_seed", "assumptions", "assumption_override"]
        tails = [
            ["cells"],
            [
                "normality", "normality_n", "mean_within_4se",
                "nongeneric_failures", "illconditioned_failures",
            ],
            ["long_run", "long_run_direction"],
        ]
        for report, tail in zip(reports, tails):
            assert list(report.to_dict()) == head + tail

    def test_consistency_table_matches_cells(self):
        report = run_consistency(small_config(reps=100, n_grid=(40, 80)))
        header, rows = report.table()
        cells = report.to_dict()["cells"]
        assert header == list(cells[0])
        assert rows == [list(c.values()) for c in cells]


class TestChunking:
    """Reports must not depend on how replications are split into chunks, nor on ``threads``."""

    def reports(self, threads):
        cfg = small_config(reps=100, n_grid=(40, 80))
        normality = run_normality(cfg, threads=threads)
        return [
            json.dumps(run_consistency(cfg, threads=threads).to_dict()),
            json.dumps(run_long_run_check(cfg, t=np.array([1.0, -0.5]), threads=threads).to_dict()),
            json.dumps(normality.to_dict()),
            normality.table(),
        ]

    @pytest.mark.parametrize("reps_per_chunk", [1, 7])
    def test_reports_byte_identical(self, draw_policy, reps_per_chunk):
        whole = self.reports(threads=1)
        # (p + 1) n floats per replication at the largest n = 80, on one worker.
        draw_policy(elements=reps_per_chunk * 2 * 80, cpus=1)
        assert self.reports(threads=8) == whole


class TestFitCell:
    @pytest.mark.parametrize("path", ["alpha", "phi"])
    def test_fits_equal_tls_fit_of_the_synthesized_data(self, path):
        # One cell under GRAM_BLOCK columns and one past einsum's 8192-float buffer.
        cfg = default_config(path, beta=(1.0, -2.0), n_grid=(250, 9000), replications=100)
        for cell, n in enumerate(cfg.n_grid):
            _, fits = _fit_cell(cfg, cell)
            for r in (0, 1, 58, 99):
                seed = derive_subseed(cfg.master_seed, r, cell)
                inst = synthesize(cfg.design, cfg.beta, cfg.errors, n, seed)
                fit = tls_fit(inst.x, inst.y)
                assert fits.status[r] == FIT_OK
                assert np.array_equal(fits.beta[r], fit.beta_hat)
                assert fits.lam[r] == fit.lam
                assert np.array_equal(fits.v[r], fit.v)


class TestWorkers:
    """Gram stacks must not depend on how many threads draw them."""

    @pytest.mark.parametrize(
        "path, n, rows, q",
        [
            ("alpha", 90, (6, 3, 2), 0),
            ("phi", 90, (6, 3, 2), 0),
            ("alpha", 9000, (4, 2, 1), 0),
            ("phi", 9000, (4, 2, 1), 0),
            ("phi", 16_000, (2, 1, 2), 0),
            ("phi", 250, (50, 20, 10), 2000),
        ],
        ids=["alpha", "phi", "alpha-n9000", "phi-n9000", "phi-n16000", "ma2000-n250"],
    )
    def test_gram_stacks_bitwise_equal_for_1_2_3_workers(self, draw_policy, path, n, rows, q):
        cfg = default_config(path, beta=(1.0, -2.0), n_grid=(n,), replications=100)
        if q:
            # Every column MA(q): each row draws a lead longer than n.
            columns = (ma((1.0,) * (q + 1)),) * 3
            cfg = dataclasses.replace(cfg, errors=dataclasses.replace(cfg.errors, column_specs=columns))
        # Chunks of rows[w - 1] replications of (p + 1) n + max(0, q - n)
        # floats on w workers: at n = 90 every worker draws many chunks;
        # n = 9000 is past einsum's 8192-float buffer, and n = 16 000 spans
        # four GRAM_BLOCKs.
        stacks = []
        for workers, k in zip((1, 2, 3), rows):
            draw_policy(elements=k * (3 * n + max(0, q - n)), cpus=workers)
            stacks.append(_replicate(cfg, 0))
        assert stacks[0].shape == (100, 3, 3)
        assert all(np.array_equal(s, stacks[0]) for s in stacks[1:])

    def test_worker_error_reaches_the_caller(self, monkeypatch, draw_policy):
        cfg = small_config()  # 120 replications at n = 40, drawn in chunks of 10
        draw_policy(elements=2 * 40 * 10, cpus=2)
        draw = montecarlo.map_draws

        def failing_from_60_and_90(specs, sd, seeds, n, reduce):
            # Each replication's errors, drawn alone, mark the chunk it starts.
            marks = {
                lo: draw(specs, sd, seeds[:, lo : lo + 1], n, lambda b: b[0])[0] for lo in (60, 90)
            }

            def checked(block):
                for lo, mark in marks.items():
                    if np.array_equal(block[0], mark):
                        raise FloatingPointError(f"chunk from {lo}")
                return reduce(block)

            return draw(specs, sd, seeds, n, checked)

        monkeypatch.setattr(montecarlo, "map_draws", failing_from_60_and_90)
        before = threading.active_count()
        # The first failing chunk in block order raises, whichever thread ran it.
        with pytest.raises(FloatingPointError, match="chunk from 60"):
            run_consistency(cfg)
        assert threading.active_count() == before


class TestPresets:
    def test_default_config_paths(self):
        for path in ("alpha", "phi"):
            cfg = default_config(path, beta=(1.0,))
            assert cfg.design.p == 1
            assert cfg.errors.p == 1
        with pytest.raises(InvalidParams):
            default_config("gamma", beta=(1.0,))

    def test_default_errors_metadata_supports_theorems(self):
        from eivtls.mixing import check_assumptions

        assert check_assumptions(
            "AN-alpha", default_design(2), default_errors("alpha", 2)
        ).passed
        assert check_assumptions(
            "AN-phi", default_design(2), default_errors("phi", 2)
        ).passed
