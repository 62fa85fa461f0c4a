import dataclasses
import json
import threading

import numpy as np
import pytest

from eivtls import montecarlo, processes
from eivtls.errors import InvalidParams
from eivtls.estimator import FIT_OK, tls_fit
from eivtls.model import repeating_block, synthesize
from eivtls.montecarlo import (
    ConsistencyReport,
    ExperimentConfig,
    LongRunReport,
    NormalityExperimentReport,
    derive_subseed,
    run_consistency,
    run_long_run_check,
    run_normality,
    _fit_cell,
    _replicate,
)
from eivtls.presets import default_config, default_design, default_errors
from eivtls.processes import ErrorMatrixSpec, ar1, iid_gaussian


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

    def test_thread_count_does_not_change_report(self, monkeypatch):
        cfg = small_config(reps=100, n_grid=(40,))
        # 2 n = 80 floats per replication: chunks of 15 replications on one
        # worker, 5 on each of three (about 33 replications per worker).
        monkeypatch.setattr(processes, "CHUNK_ELEMENTS", 3 * 5 * 80)
        reports = []
        for workers in (1, 3):
            monkeypatch.setattr(processes, "_usable_cpus", lambda: workers)
            reports.append(json.dumps(run_consistency(cfg).to_dict()))
        assert reports[0] == reports[1]


class TestRunNormality:
    def test_gaussian_iid_case(self):
        cfg = small_config(sigma2=0.5, reps=400, n_grid=(600,))
        report = run_normality(cfg, threads=4)
        assert report.kind == "normality"
        assert report.normality_n == 600
        assert report.deviations.shape == (400, 1)
        assert report.mean_within_4se
        assert report.normality.mardia_skewness_pvalue > 0.001

    def test_thread_invariance(self, monkeypatch):
        cfg = small_config(reps=150, n_grid=(200,))
        # 2 n = 400 floats per replication: chunks of 21 replications on one
        # worker, 7 on each of three (50 replications per worker).
        monkeypatch.setattr(processes, "CHUNK_ELEMENTS", 3 * 7 * 400)
        reports = []
        for workers in (1, 3):
            monkeypatch.setattr(processes, "_usable_cpus", lambda: workers)
            reports.append(run_normality(cfg))
        a, b = reports
        assert np.array_equal(a.deviations, b.deviations)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


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
    """Reports must not depend on how replications are split into chunks."""

    def reports(self):
        cfg = small_config(reps=100, n_grid=(40, 80))
        normality = run_normality(cfg)
        return [
            json.dumps(run_consistency(cfg).to_dict()),
            json.dumps(run_long_run_check(cfg, t=np.array([1.0, -0.5])).to_dict()),
            json.dumps(normality.to_dict()),
            normality.table(),
        ]

    @pytest.mark.parametrize("reps_per_chunk", [1, 7])
    def test_reports_byte_identical(self, monkeypatch, reps_per_chunk):
        whole = self.reports()
        # (p + 1) n floats per replication at the largest n = 80, on one worker.
        monkeypatch.setattr(processes, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(processes, "CHUNK_ELEMENTS", reps_per_chunk * 2 * 80)
        assert self.reports() == whole


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
        "path, n, in_flight",
        [("alpha", 90, 6), ("phi", 90, 6), ("alpha", 9000, 4), ("phi", 9000, 4)],
        ids=["alpha", "phi", "alpha-n9000", "phi-n9000"],
    )
    def test_gram_stacks_bitwise_equal_for_1_2_3_workers(self, monkeypatch, path, n, in_flight):
        cfg = default_config(path, beta=(1.0, -2.0), n_grid=(n,), replications=100)
        # in_flight replications of (p + 1) n floats: at n = 90, chunks of 6, 3
        # and 2 replications, so every worker draws many chunks; at n = 9000,
        # past einsum's 8192-float buffer, chunks of 4, 2 and 1 replications.
        monkeypatch.setattr(processes, "CHUNK_ELEMENTS", in_flight * 3 * n)
        stacks = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(processes, "_usable_cpus", lambda: workers)
            stacks.append(_replicate(cfg, 0))
        assert stacks[0].shape == (100, 3, 3)
        assert all(np.array_equal(s, stacks[0]) for s in stacks[1:])

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        cfg = small_config()  # 120 replications at n = 40, drawn in chunks of 10
        monkeypatch.setattr(processes, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(processes, "CHUNK_ELEMENTS", 2 * 2 * 40 * 10)
        draw = montecarlo.map_draws

        def failing_from_60_and_90(columns, seeds, n, reduce):
            # Each replication's errors, drawn alone, mark the chunk it starts.
            marks = {
                lo: draw(columns, seeds[:, lo : lo + 1], n, lambda b: b[0])[0] for lo in (60, 90)
            }

            def checked(block):
                for lo, mark in marks.items():
                    if np.array_equal(block[0], mark):
                        raise FloatingPointError(f"chunk from {lo}")
                return reduce(block)

            return draw(columns, seeds, n, checked)

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
