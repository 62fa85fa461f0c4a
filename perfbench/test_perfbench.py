"""Self-test of the benchmark harness (not of eivtls).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import checks
import layers
import run
import tracing

HERE = Path(__file__).resolve().parent


def span(sid, parent, start, end, name="x", unit=7):
    return (sid, parent, unit, name, start, end, False)


def test_self_time_subtracts_union_of_overlapping_cross_thread_children():
    spans = [
        span(1, 0, 0.0, 10.0, tracing.UNIT_SPAN),
        span(2, 1, 1.0, 9.0, "montecarlo.run_consistency"),
        # Two pool workers under the run span, overlapping on 4..6.
        span(3, 2, 2.0, 6.0, "model.synthesize"),
        span(4, 2, 4.0, 8.0, "model.synthesize"),
        span(5, 3, 3.0, 4.0, "seeding.stream"),
        # A child reaching past its parent is clipped to the parent.
        span(6, 4, 7.5, 8.5, "seeding.stream"),
        # The assumption check is not pool work.
        span(7, 2, 1.0, 1.5, "mixing.check_assumptions"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(8.0 - 6.5)  # union of 1..1.5 and 2..8
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(3.5)
    assert selfs[5] == pytest.approx(1.0)
    assert selfs[6] == pytest.approx(1.0)

    row = tracing.per_unit_table(spans, [(7, "processes.bytes_out", 48)])[7]
    assert row["model.synthesize.calls"] == 2
    assert row["model.synthesize.self_s"] == pytest.approx(6.5)
    assert row["montecarlo.pool.busy_s"] == pytest.approx(8.0)
    assert row["montecarlo.run.wall_s"] == pytest.approx(8.0)
    assert row["processes.bytes_out"] == 48

    got = layers.metrics(spans, [], threads=2, groups=[(7,)])
    assert got["montecarlo.pool.efficiency"][0] == pytest.approx(0.5)
    assert got["montecarlo.run.self_s"][0] == pytest.approx(1.5)
    assert got["model.synthesize.calls"][0] == 2
    assert got["stats.mardia_tests.self_s"][0] == 0.0


def test_union_length():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert tracing.union_length([(0, 2), (1, 3)], 1.5, 2.5) == pytest.approx(1.0)
    assert tracing.union_length([(4, 5)], 0, 3) == 0.0


@pytest.fixture
def fake_package():
    """``fakepkg.estimator.fit`` bound by name in ``fakepkg.montecarlo``."""
    est = types.ModuleType("fakepkg.estimator")
    mc = types.ModuleType("fakepkg.montecarlo")
    pkg = types.ModuleType("fakepkg")

    def fit(x):
        return x * 2

    def run_many(xs, threads):
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(mc.fit, xs))

    fit.__module__ = est.__name__
    run_many.__module__ = mc.__name__
    est.fit = fit
    mc.fit = fit
    mc.run_many = run_many
    pkg.fit = fit
    mods = {"fakepkg": pkg, "fakepkg.estimator": est, "fakepkg.montecarlo": mc}
    sys.modules.update(mods)
    yield mods
    for name in mods:
        del sys.modules[name]


def test_tracer_wraps_every_binding_site_and_parents_pool_workers(fake_package):
    mc, est = fake_package["fakepkg.montecarlo"], fake_package["fakepkg.estimator"]
    original = est.fit
    tracer = tracing.Tracer("fakepkg", layers=("estimator", "montecarlo"))
    tracer.install()
    try:
        assert mc.fit is est.fit is fake_package["fakepkg"].fit is not original
        with tracer.unit_span(3):
            assert mc.run_many([1, 2, 3, 4], threads=2) == [2, 4, 6, 8]
    finally:
        tracer.uninstall()
    assert mc.fit is original and est.fit is original

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[3], []).append(s)
    (unit,) = by_name[tracing.UNIT_SPAN]
    (run_span,) = by_name["montecarlo.run_many"]
    assert run_span[1] == unit[0]
    assert len(by_name["estimator.fit"]) == 4
    assert all(s[1] == run_span[0] and s[2] == 3 for s in by_name["estimator.fit"])


def consistency_report(failures=0):
    cells = [
        {
            "n": n,
            "successes": 500 - failures,
            "nongeneric_failures": failures,
            "illconditioned_failures": 0,
            "median_beta_err": 0.1 / n,
            "iqr_beta_err": 0.05 / n,
            "median_lambda_dev": 0.01,
            "ols_median_beta_err": 0.3,
        }
        for n in (250, 1000)
    ]
    return {"config": {"replications": 500}, "cells": cells}


class FakeWorkload:
    """Serves prepared report dicts as unit outputs."""

    values = staticmethod(checks.consistency_values)
    fits = staticmethod(checks.consistency_fits)
    invariants = staticmethod(checks.consistency_invariants)

    def __init__(self, reports):
        self.reports = reports

    def run_unit(self, ctx, unit):
        return self.reports[unit]

    def report(self, ctx, out):
        return out

    def reps(self, values):
        return 1000


def tally_of(reports, reference):
    tally = run.Tally(FakeWorkload(reports), reference)
    for unit in range(len(reports)):
        tally.unit({}, unit)
    return tally


def test_matching_reports_pass():
    reference = [checks.consistency_values(consistency_report())] * 2
    tally = tally_of([consistency_report(), consistency_report()], reference)
    assert (tally.attempted, tally.failed, tally.problems) == (2, 0, [])
    assert (tally.fits, tally.fit_failures, tally.reps) == (2000, 0, 1000)


def test_perturbed_report_is_a_failed_unit():
    reference = [checks.consistency_values(consistency_report())] * 3
    nudged = consistency_report()
    nudged["cells"][1]["median_beta_err"] *= 1 + 1e-6
    within_tolerance = consistency_report()
    within_tolerance["cells"][0]["iqr_beta_err"] *= 1 + 1e-10
    tally = tally_of([nudged, within_tolerance, consistency_report(failures=1)], reference)
    assert tally.attempted == 3 and tally.failed == 2
    assert any("unit 0: n=1000.median_beta_err" in p for p in tally.problems)
    # Failure counts are compared exactly.
    assert any("unit 2: n=250.nongeneric_failures" in p for p in tally.problems)
    assert tally.fit_failures == 2


def test_invariants_hold_on_every_seed():
    broken = consistency_report()
    broken["cells"][0]["successes"] = 499
    broken["cells"][1]["median_lambda_dev"] = float("nan")
    tally = tally_of([broken], reference=None)
    assert tally.failed == 1
    assert len(tally.problems) == 2

    ci = {
        "config": {"n_boot": 999},
        "block_length": 10,
        "n_boot_effective": 999,
        "failure_count": 0,
        "point_estimate": [1.0],
        "lower": [1.2],
        "upper": [0.8],
    }
    assert checks.bootstrap_invariants(checks.bootstrap_values(ci)) == ["interval 0: lower > upper"]
    lr = checks.long_run_values({"long_run": [{"n": 1000, "t_beth_t": -1.0}]})
    assert len(checks.long_run_invariants(lr)) == 1


def test_mismatched_thread_reports_are_a_failed_unit():
    tally = run.Tally(FakeWorkload([]), None)
    tally.extra(0, checks.same_bytes(b'{"a": 1}\n', b'{"a": 1}\n'))
    tally.extra(0, checks.same_bytes(b'{"a": 1}\n', b'{"a": 2}\n'))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_raising_unit_is_a_failed_unit():
    class Raising(FakeWorkload):
        def run_unit(self, ctx, unit):
            raise RuntimeError("boom")

    tally = run.Tally(Raising([]), None)
    assert tally.unit({}, 1) is None
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tail_has_ten_units_beyond_it():
    times = [float(i) for i in range(1, 41)]
    assert run.tail(times) == (30.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 100.0 * 2 / 3)
    assert run.tail([float(i) for i in range(1, 13)]) == (6.0, 50.0)


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bootstrap", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_json_line_carries_the_listed_end_to_end_metrics():
    listed = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bootstrap", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"median of {run.SETUP_RUNS} fresh interpreters" in proc.stdout
