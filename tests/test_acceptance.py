"""End-to-end acceptance suite.

Each test exercises one verifiable claim about the estimator, the mixing
diagnostics, or the experiment harness, and prints a single pass/fail line
so the whole gate can be read at a glance.
"""

import json

import numpy as np
import pytest

from eivtls.bootstrap import BootstrapConfig, block_bootstrap_ci
from eivtls.cli import main as cli_main
from eivtls.errors import EivError
from eivtls.estimator import ols_fit, tls_fit
from eivtls.mixing import FiniteJoint, alpha_between, check_assumptions, phi_between
from eivtls.model import repeating_block, synthesize
from eivtls.montecarlo import (
    ExperimentConfig,
    clt_check,
    derive_subseed,
    run_consistency,
    run_long_run_check,
    run_normality,
)
from eivtls.processes import ErrorMatrixSpec, ar1, iid_gaussian, ma

from conftest import exemplar


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num:02d}: {desc}{suffix}", flush=True)
    assert ok, f"criterion {num:02d} failed: {desc}{suffix}"


def _random_generic_dataset(rng, n, p):
    block = np.vstack([np.eye(p), rng.uniform(-1.5, 1.5, size=(2, p))])
    errors = ErrorMatrixSpec(
        (iid_gaussian(),) * (p + 1), sigma2=float(rng.uniform(0.2, 1.5))
    )
    beta = rng.uniform(-2.0, 2.0, size=p)
    seed = int(rng.integers(0, 2**63))
    inst = synthesize(repeating_block(block), beta, errors, n, seed)
    return inst.x, inst.y


def test_criterion_01_exact_algebra():
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(500):
        p = int(rng.choice([1, 2, 3]))
        n = int(rng.choice([50, 500]))
        x, y = _random_generic_dataset(rng, n, p)
        fit = tls_fit(x, y)
        xy = np.column_stack([x, y])
        m = xy.T @ xy
        bvec = np.append(fit.beta_hat, -1.0)
        scale = np.sqrt(np.sum(m * m))
        r1 = np.max(np.abs(m @ bvec - fit.lam * bvec)) / scale
        r2 = np.max(
            np.abs(x.T @ y - (x.T @ x - fit.lam * np.eye(p)) @ fit.beta_hat)
        ) / scale
        r3 = abs(float(y @ y) - float(y @ x @ fit.beta_hat) - fit.lam) / scale
        worst = max(worst, r1, r2, r3)
    _report(
        1,
        "eigen and partitioned identities hold to 1e-7 relative on 500 datasets",
        worst <= 1e-7,
        f"worst relative residual {worst:.3e}",
    )


def test_criterion_02_hand_derived_fixture():
    fit = tls_fit(np.array([[1.0], [2.0]]), np.array([2.0, 3.0]))
    lam_err = abs(fit.lam - (9.0 - 4.0 * np.sqrt(5.0)))
    beta_err = abs(fit.beta_hat[0] - (1.0 + np.sqrt(5.0)) / 2.0)
    _report(
        2,
        "two-point fixture reproduces the closed-form eigenvalue and slope to 1e-9",
        lam_err <= 1e-9 and beta_err <= 1e-9,
        f"lambda err {lam_err:.2e}, beta err {beta_err:.2e}",
    )


def test_criterion_03_mixing_definitions():
    checks = []
    pu = np.array([0.3, 0.7])
    pv = np.array([0.25, 0.25, 0.5])
    indep = FiniteJoint(np.outer(pu, pv))
    checks.append(alpha_between(indep) == pytest.approx(0.0, abs=1e-15))
    checks.append(phi_between(indep) == pytest.approx(0.0, abs=1e-15))
    fair = FiniteJoint(np.diag([0.5, 0.5]))
    checks.append(alpha_between(fair) == pytest.approx(0.25, abs=1e-15))
    checks.append(phi_between(fair) == pytest.approx(0.5, abs=1e-15))
    for p in (0.1, 0.3, 0.42):
        dep = FiniteJoint(np.diag([1.0 - p, p]))
        checks.append(alpha_between(dep) == pytest.approx(p * (1 - p), abs=1e-15))
    rng = np.random.default_rng(303)
    dominated = True
    for _ in range(1000):
        k, l = rng.integers(2, 6, size=2)
        pmf = rng.random((k, l))
        joint = FiniteJoint(pmf / pmf.sum())
        dominated &= alpha_between(joint) <= phi_between(joint) + 1e-12
    checks.append(dominated)
    _report(
        3,
        "mixing coefficients match exact fixtures and alpha <= phi on 1000 joints",
        all(checks),
    )


def test_criterion_04_expected_cross_product():
    from eivtls.model import build_design, expected_cross_product

    n, reps = 200, 5000
    beta = np.array([1.0, -2.0])
    ok = True
    worst = 0.0
    for path in ("alpha", "phi"):
        cfg = exemplar(path, beta)
        design, errors = cfg.design, cfg.errors
        z = build_design(design, n)
        expected = expected_cross_product(z, beta, errors.sigma2)
        acc = np.empty((reps, 3, 3))
        for r in range(reps):
            inst = synthesize(design, beta, errors, n, derive_subseed(404, r, 0))
            xy = np.column_stack([inst.x, inst.y])
            acc[r] = xy.T @ xy
        mean = acc.mean(axis=0)
        se = acc.std(axis=0, ddof=1) / np.sqrt(reps)
        z_scores = np.abs(mean - expected) / se
        worst = max(worst, float(np.max(z_scores)))
        ok &= bool(np.all(z_scores <= 4.0))
    _report(
        4,
        "Monte Carlo mean of the joined cross product matches theory within 4 SE "
        "on both exemplar paths",
        ok,
        f"worst z-score {worst:.2f}",
    )


def test_criterion_05_consistency():
    ok = True
    details = []
    for path in ("alpha", "phi"):
        cfg = exemplar(path, (1.0,), master_seed=505)
        report = run_consistency(cfg)
        meds = [c.median_beta_err for c in report.cells]
        scaled = [m * np.sqrt(c.n) for m, c in zip(meds, report.cells)]
        decreasing = all(a > b for a, b in zip(meds, meds[1:]))
        ratio = max(scaled) / min(scaled)
        lam_dev = report.cells[-1].median_lambda_dev
        ok &= decreasing and ratio <= 2.0 and lam_dev < 0.05
        details.append(f"{path}: ratio {ratio:.2f}, lambda dev {lam_dev:.4f}")
    _report(
        5,
        "median errors strictly decrease, sqrt(n)-scaled medians within factor 2, "
        "noise level recovered",
        ok,
        "; ".join(details),
    )


def test_criterion_06_asymptotic_normality():
    # The design is scaled up so the limit matrix dominates the noise level;
    # at n = 2000 the second-order (skewness) term of the estimator is then
    # far below the detection power of the battery, leaving the Gaussian
    # limit as the only visible signal.
    seeds = 40
    block = 5.0 * np.vstack([np.eye(2), np.ones((1, 2))])
    ok = True
    details = []
    for path in ("alpha", "phi"):
        pval_pass = mean_pass = 0
        for s in range(seeds):
            cfg = ExperimentConfig(
                design=repeating_block(block),
                beta=np.array([1.0, -2.0]),
                errors=exemplar(path, (1.0, -2.0)).errors,
                n_grid=(2000,),
                replications=2000,
                master_seed=606_000 + s,
                theorem="AN-" + path,
            )
            rep = run_normality(cfg)
            nb = rep.normality
            pvals = [nb.mardia_skewness_pvalue, nb.mardia_kurtosis_pvalue]
            pvals += [p for _, _, p in nb.ks_projection_stats]
            pval_pass += all(p > 0.01 for p in pvals)
            mean_pass += rep.mean_within_4se
        ok &= pval_pass >= 0.95 * seeds and mean_pass >= 0.95 * seeds
        details.append(f"{path}: {pval_pass}/{seeds} pvals, {mean_pass}/{seeds} means")
    _report(
        6,
        "scaled deviations pass the normality battery in >= 95% of 40 seeds "
        "on both paths",
        ok,
        "; ".join(details),
    )


def test_criterion_07_clt_long_run_variance():
    spec = ma((1.0, 1.0))
    base = clt_check(spec, n=2000, replications=2000, seed=707)
    varsigma_ok = abs(base.varsigma2_estimate - 2.0) <= 0.1
    ks_pass = 0
    seeds = 40
    for s in range(seeds):
        rep = clt_check(spec, n=2000, replications=2000, seed=707_000 + s)
        ks_pass += rep.ks_vs_standard_normal[1] > 0.01
    _report(
        7,
        "normalized MA(1) partial sums have long-run variance 2 +- 0.1 and pass "
        "KS in >= 95% of 40 seeds",
        varsigma_ok and ks_pass >= 0.95 * seeds,
        f"varsigma2 {base.varsigma2_estimate:.3f}, KS {ks_pass}/{seeds}",
    )


def test_criterion_08_long_run_condition():
    errors = ErrorMatrixSpec((ma((1.0, 1.0), omega=1.0),) * 2, sigma2=1.0)
    cfg = ExperimentConfig(
        design=exemplar("alpha", (1.0,)).design,
        beta=np.array([1.0]),
        errors=errors,
        n_grid=(1000, 4000, 16000),
        replications=500,
        master_seed=808,
        theorem="AN-phi",
    )
    t = np.ones(2) / np.sqrt(2.0)
    report = run_long_run_check(cfg, t)
    vals = [v for _, v in report.long_run_table]
    positive = all(v > 0 for v in vals)
    rel_gap = abs(vals[-1] - vals[-2]) / vals[-2]
    _report(
        8,
        "projected long-run variance trajectory is positive and stabilizes "
        "within 15%",
        positive and rel_gap <= 0.15,
        f"trajectory {[round(v, 4) for v in vals]}, gap {rel_gap:.3f}",
    )


def test_criterion_09_assumption_checker():
    design = exemplar("alpha", (1.0,)).design
    pass_fix = check_assumptions(
        "AN-alpha", design, ErrorMatrixSpec((ar1(0.5, delta=3.0, omega=1.0),) * 2, sigma2=1.0)
    )
    fail_fix = check_assumptions(
        "AN-alpha", design, ErrorMatrixSpec((ar1(0.5, delta=1.0, omega=1.0),) * 2, sigma2=1.0)
    )
    phi = exemplar("phi", (1.0, -2.0))
    phi_fix = check_assumptions("AN-phi", phi.design, phi.errors)
    failed_names = {c.name for c in fail_fix.checks if not c.passed}
    ok = (
        pass_fix.passed
        and not fail_fix.passed
        and failed_names == {"rate-vs-moment-order"}
        and phi_fix.passed
    )
    _report(9, "assumption checker produces the three expected verdicts", ok)


def _coverage(design, errors, beta, block_length, n, outer, seed_base):
    hits = 0
    for r in range(outer):
        inst = synthesize(design, beta, errors, n, derive_subseed(seed_base, r, 0))
        cfg = BootstrapConfig(
            block_length=block_length,
            n_boot=399,
            level=0.95,
            seed=derive_subseed(seed_base, r, 1),
        )
        try:
            ci = block_bootstrap_ci(inst.x, inst.y, cfg)
        except EivError:
            continue
        hits += bool(ci.lower[0] <= beta[0] <= ci.upper[0])
    return hits / outer


def test_criterion_10_bootstrap_coverage():
    design = repeating_block([[1.0], [2.0]])
    beta = np.array([1.0])
    n, outer = 1000, 200
    ma_errors = ErrorMatrixSpec((ma((1.0, 1.0)),) * 2, sigma2=1.0)
    cov_dep = _coverage(design, ma_errors, beta, "auto", n, outer, 1010)
    iid_errors = ErrorMatrixSpec((iid_gaussian(),) * 2, sigma2=1.0)
    cov_iid_1 = _coverage(design, iid_errors, beta, 1, n, outer, 1011)
    cov_iid_auto = _coverage(design, iid_errors, beta, "auto", n, outer, 1011)
    gap = abs(cov_iid_1 - cov_iid_auto)
    ok = 0.88 <= cov_dep <= 0.99 and gap <= 0.03
    _report(
        10,
        "block bootstrap covers the true slope at nominal 95% under dependence; "
        "block length is harmless under independence",
        ok,
        f"dependent coverage {cov_dep:.3f}, iid gap {gap:.3f}",
    )


def test_criterion_11_attenuation_contrast():
    errors = ErrorMatrixSpec((iid_gaussian(), iid_gaussian()), sigma2=1.0)
    inst = synthesize(repeating_block([[1.0], [-1.0]]), [1.0], errors, 100_000, 1111)
    ols = float(ols_fit(inst.x, inst.y)[0])
    tls = float(tls_fit(inst.x, inst.y).beta_hat[0])
    ok = abs(ols - 0.5) <= 0.05 and abs(tls - 1.0) <= 0.05
    _report(
        11,
        "measurement error halves the OLS slope while TLS stays consistent",
        ok,
        f"OLS {ols:.4f}, TLS {tls:.4f}",
    )


def test_criterion_12_determinism(tmp_path, draw_policy):
    # 4 and 7 chunks of replications: one CPU draws them on the calling
    # thread, four on pool threads.
    cfg = exemplar("alpha", (1.0,), n_grid=(2000, 4000), replications=100, master_seed=1212)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    outputs = []
    for cpus in (1, 4):
        draw_policy(cpus=cpus)
        out = tmp_path / f"report{cpus}.json"
        code = cli_main(["mc-consistency", "--config", str(cfg_path), "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    _report(
        12,
        "reports do not depend on the threads that draw them",
        outputs[0] == outputs[1],
        "calling thread against 4 pool threads",
    )
