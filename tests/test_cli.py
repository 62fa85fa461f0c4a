import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eivtls
import eivtls.processes
import eivtls.montecarlo
from eivtls.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from eivtls.estimator import FIT_EIG_GAP, FIT_NONGENERIC, tls_from_gram
from eivtls.io import read_dataset_csv, write_dataset_csv
from eivtls.presets import default_config


SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

GOLDEN_LAMBDA = 9.0 - 4.0 * np.sqrt(5.0)
GOLDEN_BETA = (1.0 + np.sqrt(5.0)) / 2.0


@pytest.fixture
def config_path(tmp_path):
    cfg = default_config("alpha", beta=(1.5,), n_grid=(40, 80), replications=100)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


@pytest.fixture
def phi_config_path(tmp_path):
    cfg = default_config("phi", beta=(1.0,), n_grid=(40, 80), replications=100)
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return str(path)


def run(*argv):
    return main([str(a) for a in argv])


class TestGenFit:
    def test_roundtrip(self, tmp_path, config_path):
        data = tmp_path / "data.csv"
        report = tmp_path / "fit.json"
        assert run("gen", "--config", config_path, "--n", 200, "--out", data) == EXIT_OK
        assert run("fit", "--data", data, "--out", report) == EXIT_OK
        out = json.loads(report.read_text())
        assert out["n"] == 200
        assert abs(out["beta_hat"][0] - 1.5) < 0.5
        assert out["sigma2_hat"] == out["lambda"] / 200
        assert "artifact_version" in out

    def test_fit_golden_fixture(self, tmp_path):
        data = tmp_path / "tiny.csv"
        report = tmp_path / "fit.json"
        write_dataset_csv(str(data), np.array([[1.0], [2.0]]), np.array([2.0, 3.0]))
        assert run("fit", "--data", data, "--out", report) == EXIT_OK
        out = json.loads(report.read_text())
        assert out["beta_hat"][0] == pytest.approx(GOLDEN_BETA, abs=1e-9)
        assert out["lambda"] == pytest.approx(GOLDEN_LAMBDA, abs=1e-9)

    def test_csv_bitwise_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        path = tmp_path / "rt.csv"
        write_dataset_csv(str(path), x, y)
        x2, y2 = read_dataset_csv(str(path))
        assert np.array_equal(x, x2)
        assert np.array_equal(y, y2)

    def test_gen_deterministic_under_seed(self, tmp_path, config_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "--config", config_path, "--n", 100, "--seed", 9, "--out", a)
        run("gen", "--config", config_path, "--n", 100, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()


def alpha_config_dict(**changes):
    d = default_config("alpha", beta=(1.5,), n_grid=(40, 80), replications=100).to_dict()
    d.update(changes)
    return d


def ar1_without_a():
    d = alpha_config_dict()
    del d["errors"]["columns"][0]["a"]
    return d


def alpha_with_columns(**changes):
    d = alpha_config_dict()
    for col in d["errors"]["columns"]:
        col.update(changes)
    return d


def phi_with_block_scaled(factor):
    d = json.loads((SHIPPED_CONFIGS / "phi_p2.json").read_text())
    d["design"]["block"] = (factor * np.asarray(d["design"]["block"])).tolist()
    return d


CLT_BAD_N = {
    "process": {"kind": "ma", "coeffs": [1.0, 1.0], "scale": 1.0},
    "n": "abc", "replications": 500, "seed": 3,
}
CLT_OMEGA_ZERO = {**CLT_BAD_N, "n": 500, "process": {"kind": "iid_gaussian", "omega": 0}}


def fits_failing(failed):
    """A tls_from_gram whose rows r with ``failed(r)`` fail the eigen-gap guard."""

    def kernel(m):
        fits = tls_from_gram(m)
        status = fits.status.copy()
        status[failed(np.arange(len(status)))] = FIT_EIG_GAP
        return fits._replace(status=status)

    return kernel


class TestErrorExits:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("mc-consistency", alpha_config_dict(replications="many")),
            ("mc-consistency", alpha_config_dict(n_grid=[40, "eighty"])),
            ("mc-consistency", alpha_config_dict(beta=["one"])),
            ("mc-consistency", ar1_without_a()),
            ("mc-consistency", alpha_config_dict(design="repeating_block")),
            ("mc-consistency", alpha_with_columns(omega="x")),
            ("mc-consistency", alpha_with_columns(delta="x")),
            ("check-assumptions", alpha_with_columns(delta=float("nan"))),
            ("mc-consistency", alpha_config_dict(n_grid=[])),
            ("mc-consistency", alpha_config_dict(replications=100.7)),
            ("mc-consistency", alpha_config_dict(n_grid=[40, 80.5])),
            ("mc-consistency", alpha_with_columns(omega=0)),
            ("mc-consistency", alpha_with_columns(omega=-1)),
            ("mc-consistency", alpha_with_columns(stationary=False)),
            ("check-assumptions", alpha_with_columns(omega=0)),
            ("clt-check", CLT_OMEGA_ZERO),
            ("clt-check", CLT_BAD_N),
            ("clt-check", {**CLT_BAD_N, "n": 500, "process": "ma"}),
            ("clt-check", {**CLT_BAD_N, "n": 500, "replications": 600.5}),
            ("clt-check", {**CLT_BAD_N, "n": 500.5}),
            ("check-assumptions", alpha_with_columns(scale=5.0)),
            ("check-assumptions", phi_with_block_scaled(1e200)),
            ("mc-consistency", alpha_config_dict(replications="500")),
            ("mc-consistency", alpha_config_dict(n_grid=["250", 1000])),
            ("clt-check", {**CLT_BAD_N, "n": True}),
            ("clt-check", {**CLT_BAD_N, "n": 500, "process": {**CLT_BAD_N["process"], "scale": 2.0}}),
            ("clt-check", {**CLT_BAD_N, "n": 500, "process": {"kind": "ma", "coeffs": [1e200, 1e200]}}),
            ("clt-check", {**CLT_BAD_N, "n": 500, "process": {"kind": "ma", "coeffs": [2e-162, 2e-162]}}),
            ("clt-check", {**CLT_BAD_N, "n": 500, "process": {"kind": "ma", "coeffs": [1e-161, 1e-161]}}),
        ],
        ids=[
            "replications-string",
            "n_grid-string",
            "beta-string",
            "ar1-without-a",
            "design-string",
            "omega-string",
            "delta-string",
            "check-assumptions-delta-nan",
            "n_grid-empty",
            "replications-fraction",
            "n_grid-fraction",
            "omega-zero",
            "omega-negative",
            "stationary-false",
            "check-assumptions-omega-zero",
            "clt-omega-zero",
            "clt-n-string",
            "clt-process-string",
            "clt-replications-fraction",
            "clt-n-fraction",
            "column-scale",
            "check-assumptions-design-overflow",
            "replications-numeric-string",
            "n_grid-numeric-string",
            "clt-n-bool",
            "clt-column-scale",
            "clt-ma-norm-overflow",
            "clt-ma-norm-subnormal",
            "clt-ma-norm-subnormal-edge",
        ],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, command, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run(command, "--config", path, "--out", tmp_path / "r.json") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_object_config_with_seed_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([alpha_config_dict()]))
        code = run("mc-consistency", "--config", path, "--seed", 5, "--out", tmp_path / "r.json")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_numeric_direction_is_config_error(self, tmp_path, config_path, capsys):
        out = tmp_path / "lr.json"
        code = run("long-run-check", "--config", config_path, "--t", "a,b", "--out", out)
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mc-consistency", "mc-normality"])
    def test_every_fit_failing_is_numerical_error(
        self, tmp_path, monkeypatch, command, config_path
    ):
        monkeypatch.setattr(eivtls.montecarlo, "tls_from_gram", fits_failing(lambda r: r >= 0))
        assert run(command, "--config", config_path, "--out", tmp_path / "r.json") == EXIT_NUMERICAL

    def test_too_few_normality_survivors_is_numerical_error(
        self, tmp_path, monkeypatch, capsys, config_path
    ):
        # p = 1 and R = 100: 10 survivors are fewer than the battery's 20 * p.
        monkeypatch.setattr(eivtls.montecarlo, "tls_from_gram", fits_failing(lambda r: r < 90))
        code = run("mc-normality", "--config", config_path, "--out", tmp_path / "r.json")
        assert code == EXIT_NUMERICAL
        assert "90 of 100 fits failed" in capsys.readouterr().err

    def test_overflowing_gram_matrices_are_numerical_error(self, tmp_path, capsys):
        # The limit matrix of the scaled block is finite, but y'y at n = 250 is not.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(phi_with_block_scaled(1e153)))
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = run("mc-consistency", "--config", path, "--out", tmp_path / "r.json")
        assert code == EXIT_NUMERICAL
        assert "every replication failed" in capsys.readouterr().err

    def test_underdetermined_dataset_is_config_error(self, tmp_path):
        data = tmp_path / "short.csv"
        write_dataset_csv(
            str(data), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0])
        )
        assert run("fit", "--data", data, "--out", tmp_path / "r.json") == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert run("fit", "--data", tmp_path / "nope.csv", "--out", tmp_path / "r.json") == EXIT_CONFIG

    def test_invalid_config_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("gen", "--config", bad, "--out", tmp_path / "d.csv") == EXIT_CONFIG

    def test_degenerate_dataset_is_numerical_error(self, tmp_path):
        data = tmp_path / "degenerate.csv"
        write_dataset_csv(
            str(data), np.zeros((5, 1)), np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        )
        assert run("fit", "--data", data, "--out", tmp_path / "r.json") == EXIT_NUMERICAL

    def test_unknown_subcommand(self):
        assert run("frobnicate") == EXIT_CONFIG


# No mutation may ask for a large experiment: the configs start at R = 100
# and n_grid = [40, 80] (clt-check at its floor n = R = 500), and a number
# put at replications, n or in n_grid never exceeds SIZE_CAP.
SIZE_KEYS = ("replications", "n_grid", "n")
SIZE_CAP = 500
BAD_VALUES = [
    None, "x", True, [], {}, [1.0, "x"], float("nan"), float("inf"), float("-inf"),
    -1, -1e300, 0, 0.5, 2.5, 1e300, 10**30,
]
COMMANDS = {
    "alpha_p2": ["check-assumptions", "mc-consistency", "mc-normality", "long-run-check"],
    "phi_p2": ["check-assumptions", "mc-consistency", "mc-normality", "long-run-check"],
    "clt_ma1": ["clt-check"],
}


def capped_config(name):
    d = json.loads((SHIPPED_CONFIGS / f"{name}.json").read_text())
    if name == "clt_ma1":
        d.update(n=SIZE_CAP, replications=SIZE_CAP)
    else:
        d.update(n_grid=[40, 80], replications=100)
    return d


def paths(node, prefix=()):
    """Every key or index path into a JSON tree, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


def within_cap(path, value):
    """False for a finite number above SIZE_CAP put at a size key."""
    sized = path[-1] in SIZE_KEYS or path[0] == "n_grid"
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return not (sized and number and SIZE_CAP < value < float("inf"))


class TestConfigProperty:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_mutated_config_exits_0_2_or_3(self, data):
        name = data.draw(st.sampled_from(sorted(COMMANDS)))
        config = capped_config(name)
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(paths(config))))
            parent = config
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()):
                del parent[path[-1]]
            else:
                values = [v for v in BAD_VALUES if within_cap(path, v)]
                parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(values)))
        command = data.draw(st.sampled_from(COMMANDS[name]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = run(command, "--config", path, "--out", Path(tmp) / "r.json")
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
        assert "Traceback" not in err.getvalue()


class TestExperimentCommands:
    def test_con_alpha_rejects_a_growing_envelope(self, tmp_path):
        d = json.loads((SHIPPED_CONFIGS / "alpha_p2.json").read_text())
        d["theorem"] = "CON-alpha"
        for col in d["errors"]["columns"]:
            col["delta"] = -2  # envelope n^1
        path = tmp_path / "con.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "r.json"
        assert run("mc-consistency", "--config", path, "--out", out) == EXIT_CONFIG
        assert not out.exists()
        assert run("check-assumptions", "--config", path, "--out", out) == EXIT_OK
        rep = json.loads(out.read_text())["assumptions"]
        assert rep["passed"] is False
        failed = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert failed == ["alpha-rate-envelope-consistency"]

    def test_check_assumptions(self, tmp_path, config_path):
        out = tmp_path / "assume.json"
        assert run("check-assumptions", "--config", config_path, "--out", out) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["assumptions"]["passed"] is True
        assert rep["config"]["theorem"] == "AN-alpha"

    def test_mc_consistency_with_tables(self, tmp_path, config_path):
        out, tab = tmp_path / "mc.json", tmp_path / "mc.csv"
        code = run(
            "mc-consistency", "--config", config_path,
            "--threads", 2, "--out", out, "--tables", tab,
        )
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert [c["n"] for c in rep["cells"]] == [40, 80]
        lines = tab.read_text().splitlines()
        assert lines[0].startswith("n,successes")
        assert len(lines) == 3

    def test_mc_normality(self, tmp_path, phi_config_path):
        out = tmp_path / "norm.json"
        assert run("mc-normality", "--config", phi_config_path, "--out", out) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["normality_n"] == 80
        assert rep["normality"]["n_samples"] == 100

    def test_mc_normality_with_tables(self, tmp_path):
        cfg = default_config("phi", beta=(1.0, -2.0), n_grid=(40, 80), replications=100)
        path = tmp_path / "phi2.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out, tab = tmp_path / "norm.json", tmp_path / "norm.csv"
        assert run("mc-normality", "--config", path, "--out", out, "--tables", tab) == EXIT_OK
        lines = tab.read_text().splitlines()
        assert lines[0] == "dev1,dev2"
        assert len(lines) == 1 + json.loads(out.read_text())["normality"]["n_samples"] == 101
        assert all(len(line.split(",")) == 2 for line in lines[1:])

    def test_mc_normality_counts_failed_fits(self, tmp_path, monkeypatch, phi_config_path):
        def kernel(m):
            fits = tls_from_gram(m)
            status = fits.status.copy()
            status[:25] = FIT_NONGENERIC
            status[25:50] = FIT_EIG_GAP
            return fits._replace(status=status)

        monkeypatch.setattr(eivtls.montecarlo, "tls_from_gram", kernel)
        out = tmp_path / "norm.json"
        assert run("mc-normality", "--config", phi_config_path, "--out", out) == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["normality"]["n_samples"] == 50
        assert (rep["nongeneric_failures"], rep["illconditioned_failures"]) == (25, 25)

    def test_clt_check(self, tmp_path):
        cfg = tmp_path / "clt.json"
        cfg.write_text(json.dumps({
            "process": {"kind": "ma", "coeffs": [1.0, 1.0], "scale": 1.0},
            "n": 500, "replications": 500, "seed": 3,
        }))
        out = tmp_path / "clt_out.json"
        assert run("clt-check", "--config", cfg, "--out", out) == EXIT_OK
        rep = json.loads(out.read_text())
        assert abs(rep["varsigma2_estimate"] - 2.0) < 0.4
        # A process without a scale key is drawn, and reported, the same way.
        cfg.write_text(json.dumps({
            "process": {"kind": "ma", "coeffs": [1.0, 1.0]},
            "n": 500, "replications": 500, "seed": 3,
        }))
        again = tmp_path / "clt_again.json"
        assert run("clt-check", "--config", cfg, "--out", again) == EXIT_OK
        assert again.read_bytes() == out.read_bytes()

    def test_long_run_check(self, tmp_path, config_path):
        out = tmp_path / "lr.json"
        assert run("long-run-check", "--config", config_path, "--out", out) == EXIT_OK
        rep = json.loads(out.read_text())
        assert all(row["t_beth_t"] > 0 for row in rep["long_run"])

    def test_bootstrap_ci(self, tmp_path, config_path):
        data = tmp_path / "bdata.csv"
        out = tmp_path / "ci.json"
        run("gen", "--config", config_path, "--n", 300, "--out", data)
        code = run(
            "bootstrap-ci", "--data", data, "--n-boot", 199, "--seed", 5, "--out", out
        )
        assert code == EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["lower"][0] <= rep["point_estimate"][0] <= rep["upper"][0]

    def test_threads_do_not_change_report_bytes(self, tmp_path, monkeypatch, config_path):
        # (p + 1) n = 160 floats per replication at n = 80: chunks of 15
        # replications on one worker and of 5 on each of three (about 33
        # replications per worker), so every worker draws several chunks.
        monkeypatch.setattr(eivtls.processes, "CHUNK_ELEMENTS", 3 * 5 * 160)
        outs = []
        for workers, threads in ((1, 1), (3, 8)):
            monkeypatch.setattr(eivtls.processes, "_usable_cpus", lambda: workers)
            out, tables = tmp_path / f"mc{workers}.json", tmp_path / f"mc{workers}.csv"
            argv = ["--threads", threads, "--out", out, "--tables", tables]
            assert run("mc-consistency", "--config", config_path, *argv) == EXIT_OK
            outs.append((out.read_bytes(), tables.read_bytes()))
        assert outs[0] == outs[1]


SCIPY_ON_FIRST_USE = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    import numpy as np

    import eivtls, eivtls.cli
    from eivtls.presets import default_config
    from eivtls.processes import ErrorMatrixSpec, ar1, generate_error_matrix

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    tmp = Path(sys.argv[1])
    cfg = default_config("phi", beta=(1.0,), n_grid=(300,), replications=100)
    (tmp / "phi.json").write_text(json.dumps(cfg.to_dict()))
    loaded = {"import": scipy_modules()}
    codes = [
        eivtls.cli.main(["gen", "--config", str(tmp / "phi.json"), "--out", str(tmp / "d.csv")]),
        eivtls.cli.main(["fit", "--data", str(tmp / "d.csv"), "--out", str(tmp / "fit.json")]),
        eivtls.cli.main([
            "bootstrap-ci", "--data", str(tmp / "d.csv"), "--n-boot", "199",
            "--seed", "5", "--out", str(tmp / "ci.json"),
        ]),
    ]
    loaded["gen, fit and bootstrap-ci"] = scipy_modules()
    e = generate_error_matrix(ErrorMatrixSpec((ar1(0.5),) * 2), 50, 3)
    print(json.dumps({
        "codes": codes,
        "loaded": loaded,
        "ar1_shape": list(e.shape),
        "ar1_finite": bool(np.all(np.isfinite(e))),
        "signal_loaded": "scipy.signal" in sys.modules,
    }))
    """
)


class TestScipyOnFirstUse:
    def test_cli_loads_no_scipy_until_ar1(self, tmp_path):
        # A fresh interpreter: this test process has scipy loaded already.
        src = str(Path(eivtls.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_ON_FIRST_USE, str(tmp_path)],
            capture_output=True, text=True, env=env, check=True,
        )
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["codes"] == [EXIT_OK] * 3
        assert out["loaded"] == {"import": [], "gen, fit and bootstrap-ci": []}
        assert out["ar1_shape"] == [50, 2] and out["ar1_finite"]
        assert out["signal_loaded"]


ONE_CPU_RUN = textwrap.dedent(
    """
    import os, sys

    if sys.argv[1] == "one-cpu":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        assert len(os.sched_getaffinity(0)) == 1
    from eivtls.cli import main

    sys.exit(main(sys.argv[2:]))
    """
)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
class TestCpuAffinity:
    def test_one_cpu_report_bytes_equal_unrestricted(self, tmp_path):
        # n = 2000 and R = 100 make several chunks, so an unrestricted run on
        # more than one CPU draws them on more than one thread.
        cfg = default_config("alpha", beta=(1.0,), n_grid=(500, 2000), replications=100)
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(cfg.to_dict()))
        src = str(Path(eivtls.__file__).resolve().parents[1])
        path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path_var)
        outputs = []
        for mode in ("one-cpu", "all-cpus"):
            out, tables = tmp_path / f"{mode}.json", tmp_path / f"{mode}.csv"
            argv = ["mc-normality", "--config", path, "--out", out, "--tables", tables]
            subprocess.run(
                [sys.executable, "-c", ONE_CPU_RUN, mode, *map(str, argv)], env=env, check=True
            )
            outputs.append((out.read_bytes(), tables.read_bytes()))
        assert outputs[0] == outputs[1]
