import contextlib
import copy
import dataclasses
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eivtls
import eivtls.bootstrap
import eivtls.cli
import eivtls.montecarlo
from eivtls.bootstrap import BootstrapConfig, block_bootstrap_ci
from eivtls.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from eivtls.errors import InvalidParams
from eivtls.estimator import FIT_EIG_GAP, FIT_NONGENERIC, tls_from_gram
from eivtls.io import read_dataset_csv, write_dataset_csv, write_table_csv
from eivtls.linalg import MAX_LENGTH
from eivtls.montecarlo import ExperimentConfig
from eivtls.presets import default_config
from eivtls.processes import ErrorProcessSpec


SHIPPED_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"

GOLDEN_LAMBDA = 9.0 - 4.0 * np.sqrt(5.0)
GOLDEN_BETA = (1.0 + np.sqrt(5.0)) / 2.0

CLEAN_CSV = "x1,y\n1.0,2.1\n2.0,2.9\n3.0,4.2\n4.0,4.8\n"
CLEAN_CSV_P2 = "x1,x2,y\n1.0,0.5,2.1\n2.0,-0.3,2.9\n3.0,1.2,4.2\n4.0,0.1,4.8\n"
BAD_DATASETS = {
    "wrong-header": b"x,y\n1.0,2.1\n2.0,2.9\n",
    "ragged-row": b"x1,y\n1.0,2.1\n2.0\n3.0,4.2\n",
    "non-numeric-field": b"x1,y\n1.0,2.1\n2.0,two\n3.0,4.2\n",
    "trailing-comma": b"x1,y\n1.0,2.1,\n2.0,2.9,\n3.0,4.2,\n",
    "header-only": b"x1,y\n",
    "rows-wider-than-header": b"x1,y\n1.0,2.0,3.1\n2.0,3.0,4.9\n3.0,1.0,4.2\n4.0,2.0,6.1\n",
    "not-utf8": b"x1,y\n1.0,2.1\n2.0,\xff\n",
}
BAD_CONFIGS = {
    "not-utf8": b'{"a": "\xff"}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}
BAD_INPUTS = [
    pytest.param(command, option, content, id=f"{command}-{name}")
    for option, commands, cases in (
        ("--data", ("fit", "bootstrap-ci"), BAD_DATASETS),
        ("--config", ("mc-consistency", "clt-check"), BAD_CONFIGS),
    )
    for command in commands
    for name, content in cases.items()
]


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


def run_script(script, *args, cwd=None):
    """The stdout of ``script`` run to exit 0 in a fresh interpreter that imports this ``eivtls``.

    As in the suite's own settings, a RuntimeWarning or DeprecationWarning is an error there.
    """
    src = str(Path(eivtls.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        PYTHONWARNINGS="error::RuntimeWarning,error::DeprecationWarning",
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def umask_forbidden(mask):
    raise AssertionError("os.umask changes the umask of every thread in the process")


class TestVersion:
    # setuptools may warn that its [tool.setuptools] table is in beta.
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_pyproject_reads_the_package_version(self):
        from setuptools.config.pyprojecttoml import read_configuration

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = read_configuration(pyproject)["project"]
        assert "version" in project.get("dynamic", [])
        assert project["version"] == eivtls.__version__

    def test_version_flag_prints_the_package_version(self, capsys):
        assert run("--version") == EXIT_OK
        assert capsys.readouterr().out == f"{eivtls.__version__}\n"


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
        # Random finite bit patterns (subnormals included) and the edge values;
        # comparing bits, not values, tells -0.0 from 0.0.
        tiny, big = np.finfo(float).tiny, np.finfo(float).max
        edges = [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, big, -big]
        bits = np.random.default_rng(0).integers(0, 2**64, size=6000, dtype=np.uint64)
        flat = bits.view(float)[np.isfinite(bits.view(float))]
        flat = flat[: len(flat) // 3 * 3]
        flat[: len(edges)] = edges
        data = flat.reshape(-1, 3)
        x, y = data[:, :2], data[:, 2]
        path = tmp_path / "rt.csv"
        write_dataset_csv(str(path), x, y)
        x2, y2 = read_dataset_csv(str(path))
        assert np.array_equal(x2.view(np.uint64), x.view(np.uint64))
        assert np.array_equal(y2.view(np.uint64), y.view(np.uint64))

    @pytest.mark.parametrize(
        "messy",
        [
            CLEAN_CSV.replace("\n", "\n\n"),
            CLEAN_CSV.replace("\n", "\n \t\n"),
            CLEAN_CSV.replace("\n", "\r\n"),
        ],
        ids=["blank-lines", "whitespace-lines", "crlf"],
    )
    def test_blank_lines_and_crlf_fit_as_the_clean_file(self, tmp_path, messy):
        fits = []
        for name, text in (("clean", CLEAN_CSV), ("messy", messy)):
            data, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            data.write_bytes(text.encode())
            assert run("fit", "--data", data, "--out", report) == EXIT_OK
            fits.append({k: v for k, v in json.loads(report.read_text()).items() if k != "data"})
        assert fits[0] == fits[1]

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_outputs_get_the_mode_the_umask_gives(self, tmp_path, monkeypatch, config_path, umask):
        data, report, table = tmp_path / "d.csv", tmp_path / "fit.json", tmp_path / "t.csv"
        old = os.umask(umask)
        try:
            # The writer leaves the process umask alone: the kernel applies it.
            with monkeypatch.context() as m:
                m.setattr(os, "umask", umask_forbidden)
                assert run("gen", "--config", config_path, "--n", 50, "--out", data) == EXIT_OK
                assert run("fit", "--data", data, "--out", report) == EXIT_OK
                write_table_csv(str(table), ["a"], [[1.0]])
        finally:
            os.umask(old)
        for path in (data, report, table):
            assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~umask

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_table_csv(str(tmp_path / "t.csv"), ["a"], [[1.0]])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("out", ["missing/f.json", "."], ids=["no-directory", "a-directory"])
    def test_failed_write_names_the_output_path(self, tmp_path, capsys, out):
        data, out = tmp_path / "d.csv", tmp_path / out
        data.write_text(CLEAN_CSV)
        assert run("fit", "--data", data, "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err

    def test_rows_wider_than_the_header_are_refused(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_bytes(BAD_DATASETS["rows-wider-than-header"])
        with pytest.raises(InvalidParams, match="3 fields per row under 2 columns"):
            read_dataset_csv(str(path))

    def test_x_and_y_of_different_lengths_are_not_written(self, tmp_path):
        path = tmp_path / "d.csv"
        with pytest.raises(InvalidParams, match="row counts differ"):
            write_dataset_csv(str(path), np.ones((3, 1)), np.ones(2))
        assert not path.exists()

    def test_fit_takes_no_seed(self, tmp_path):
        # fit draws nothing, so a --seed would be silently ignored.
        data = tmp_path / "d.csv"
        data.write_text(CLEAN_CSV)
        assert run("fit", "--data", data, "--seed", 1, "--out", tmp_path / "f.json") == EXIT_CONFIG

    def test_check_assumptions_takes_no_seed(self, tmp_path, config_path):
        # The check reads no seed, so a --seed would change only the echoed master_seed.
        argv = ["--config", config_path, "--seed", 1, "--out", tmp_path / "a.json"]
        assert run("check-assumptions", *argv) == EXIT_CONFIG

    @pytest.mark.parametrize("flag", ["--n", "--replications"])
    def test_clt_check_sizes_come_from_the_config(self, tmp_path, flag):
        argv = ["--config", SHIPPED_CONFIGS / "clt_ma1.json", flag, 500]
        assert run("clt-check", *argv, "--out", tmp_path / "c.json") == EXIT_CONFIG

    def test_gen_deterministic_under_seed(self, tmp_path, config_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("gen", "--config", config_path, "--n", 100, "--seed", 9, "--out", a)
        run("gen", "--config", config_path, "--n", 100, "--seed", 9, "--out", b)
        assert a.read_bytes() == b.read_bytes()


def alpha_config_dict(**changes):
    d = default_config("alpha", beta=(1.5,), n_grid=(40, 80), replications=100).to_dict()
    d.update(changes)
    return d


def alpha_with_sigma2(sigma2):
    d = alpha_config_dict()
    d["errors"]["sigma2"] = sigma2
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


def phi_at_p6():
    """phi_p2.json at p = 6: block [I_6; 1'], beta all 1, seven MA(2) columns, R = 100."""
    d = json.loads((SHIPPED_CONFIGS / "phi_p2.json").read_text())
    d["design"]["block"] = np.vstack([np.eye(6), np.ones(6)]).tolist()
    d["beta"] = [1.0] * 6
    d["errors"]["columns"] = d["errors"]["columns"][:1] * 7
    d.update(n_grid=[250], replications=100)
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


def near_limit_dataset():
    """400 rows whose row 7 alone puts x'x at 9.216e307, near the float limit."""
    rng = np.random.default_rng(1)
    x = rng.standard_normal(400)
    y = x + 0.5 * rng.standard_normal(400)
    x[7], y[7] = 9.6e153, 4.0e153
    return x, y


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
            ("check-assumptions", alpha_with_sigma2(True)),
            ("mc-consistency", alpha_with_sigma2(False)),
            ("check-assumptions", alpha_with_sigma2("1.0")),
            ("gen", alpha_config_dict(theorem="bogus")),
            ("gen", alpha_config_dict(theorem=5)),
            ("check-assumptions", alpha_with_columns(delta=float("inf"))),
            ("check-assumptions", alpha_with_columns(delta=float("-inf"))),
            ("check-assumptions", alpha_with_columns(omega=float("inf"))),
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
            "check-assumptions-sigma2-bool",
            "sigma2-false",
            "check-assumptions-sigma2-string",
            "gen-theorem-unknown",
            "gen-theorem-number",
            "check-assumptions-delta-inf",
            "check-assumptions-delta-minus-inf",
            "check-assumptions-omega-inf",
        ],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, command, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run(command, "--config", path, "--out", tmp_path / "r.json") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_with_no_error_columns_is_config_error(self, tmp_path, capsys):
        d = alpha_config_dict()
        d["errors"]["columns"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert run("mc-consistency", "--config", path, "--out", tmp_path / "r.json") == EXIT_CONFIG
        assert "need at least one error column" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "given, twice",
        [
            ('"replications": 500', '"replications": 100, "replications": 500'),
            ('"omega": 1.0', '"omega": 1.0, "omega": 1.0'),
        ],
        ids=["top", "column"],
    )
    def test_a_key_given_twice_is_config_error(self, tmp_path, capsys, given, twice):
        # Raw text, since json.dumps cannot write a key twice.
        path, out = tmp_path / "twice.json", tmp_path / "r.json"
        text = (SHIPPED_CONFIGS / "phi_p2.json").read_text()
        path.write_text(text.replace(given, twice, 1))
        assert run("check-assumptions", "--config", path, "--out", out) == EXIT_CONFIG
        key = given.split(":")[0].strip('"')
        message = f"malformed config {path}: the key {key!r} is given twice"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_integer_sigma2_is_echoed_as_a_float(self, tmp_path):
        path, out = tmp_path / "int.json", tmp_path / "r.json"
        path.write_text(json.dumps(alpha_with_sigma2(1)))
        assert run("check-assumptions", "--config", path, "--out", out) == EXIT_OK
        assert '"sigma2": 1.0,' in out.read_text()

    def test_non_object_config_with_seed_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([alpha_config_dict()]))
        code = run("mc-consistency", "--config", path, "--seed", 5, "--out", tmp_path / "r.json")
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_failed_assumptions_name_the_override_flag(self, tmp_path, capsys):
        code, err = exit_and_error(tmp_path, capsys, "mc-consistency", alpha_with_columns(delta=0.5))
        assert code == EXIT_CONFIG
        assert "--override-assumptions" in err

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

    def test_too_few_replications_for_the_battery_is_config_error(self, tmp_path, capsys):
        # p = 6 needs 20 * 6 = 120 replications; 100 exit 2 before the draw.
        path = tmp_path / "p6.json"
        path.write_text(json.dumps(phi_at_p6()))
        code = run("mc-normality", "--config", path, "--out", tmp_path / "r.json")
        assert code == EXIT_CONFIG
        assert "at least 120 replications, have 100" in capsys.readouterr().err

    def test_overflowing_gram_matrices_are_numerical_error(self, tmp_path, capsys):
        # The limit matrix of the scaled block is finite, but y'y at n = 250 is
        # not: every fit is refused as non-finite, and no overflow warning escapes.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(phi_with_block_scaled(1e153)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("mc-consistency", "--config", path, "--out", tmp_path / "r.json")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == EXIT_NUMERICAL
        assert "every replication failed" in capsys.readouterr().err

    def test_overflowing_long_run_scores_are_numerical_error(self, tmp_path, capsys):
        # beta = 1e300 is a finite config, but the score [x, y]' ([x, y] b) is not.
        d = capped_config("alpha_p2")
        d["beta"][0] = 1e300
        path = tmp_path / "huge_beta.json"
        path.write_text(json.dumps(d))
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("long-run-check", "--config", path, "--out", out)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == EXIT_NUMERICAL
        assert "long-run variance overflowed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, message",
        [
            ("gen", "the signal y = z @ beta + eps overflows at n = 80"),
            ("mc-consistency", "every replication failed at n = 40"),
            ("mc-normality", "every replication failed at n = 80"),
            ("long-run-check", "the long-run variance overflowed at n = 40"),
        ],
        ids=["gen", "mc-consistency", "mc-normality", "long-run-check"],
    )
    def test_overflowing_signal_is_numerical_error(self, tmp_path, capsys, command, message):
        # Each entry of beta is finite, but z @ beta is not where z has a row (1, 1).
        d = capped_config("alpha_p2")
        d["beta"] = [1.7e308, 1.7e308]
        path, out = tmp_path / "huge_signal.json", tmp_path / "r.out"
        path.write_text(json.dumps(d))
        size = ["--n", 80] if command == "gen" else []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(command, "--config", path, *size, "--out", out)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == EXIT_NUMERICAL
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["mc-consistency", "mc-normality"])
    def test_near_limit_gram_matrices_exit_without_warning(self, tmp_path, command):
        # sigma2 = 1e300 keeps every Gram entry finite, but squaring one is not.
        d = capped_config("alpha_p2")
        d["errors"]["sigma2"] = 1e300
        path = tmp_path / "huge_sigma2.json"
        path.write_text(json.dumps(d))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(command, "--config", path, "--out", tmp_path / "r.json")
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (EXIT_OK, EXIT_NUMERICAL)

    def test_near_limit_dataset_is_fitted(self, tmp_path):
        # Its Gram [[9.216e307, 3.84e307], [3.84e307, 1.6e307]] is finite, and
        # so is every step of the fit: the same fit as the data times 1e-150.
        x, y = near_limit_dataset()
        data, out = tmp_path / "near_limit.csv", tmp_path / "r.json"
        write_dataset_csv(str(data), x[:, None], y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("fit", "--data", data, "--out", out)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == EXIT_OK
        scaled = eivtls.tls_fit(1e-150 * x[:, None], 1e-150 * y).beta_hat
        np.testing.assert_allclose(json.loads(out.read_text())["beta_hat"], scaled, rtol=1e-12, atol=0)

    def test_near_limit_resample_grams_exit_without_warning(self, tmp_path, capsys):
        # Row 7's Gram is finite, but a resample that draws it twice is not:
        # those resamples fail to refit, with no overflow warning.
        x, y = near_limit_dataset()
        data = tmp_path / "near_limit.csv"
        write_dataset_csv(str(data), x[:, None], y)
        out = tmp_path / "r.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run("bootstrap-ci", "--data", data, "--block-length", 1, "--n-boot", 199, "--out", out)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == EXIT_NUMERICAL
        assert "resamples failed to refit" in capsys.readouterr().err
        assert not out.exists()

    def test_underdetermined_dataset_is_config_error(self, tmp_path):
        data = tmp_path / "short.csv"
        write_dataset_csv(
            str(data), np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 2.0])
        )
        assert run("fit", "--data", data, "--out", tmp_path / "r.json") == EXIT_CONFIG

    @pytest.mark.parametrize("command, option, content", BAD_INPUTS)
    def test_unreadable_input_is_config_error(self, tmp_path, capsys, command, option, content):
        path, out = tmp_path / "input", tmp_path / "r.json"
        path.write_bytes(content)
        assert run(command, option, path, "--out", out) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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


def shipped(name):
    return json.loads((SHIPPED_CONFIGS / f"{name}.json").read_text())


def edited(name, path, key, *value):
    """Shipped config ``name`` with ``key`` of the object at ``path`` set to ``value``, or deleted."""
    d = shipped(name)
    node = d
    for step in path:
        node = node[step]
    if value:
        node[key] = value[0]
    else:
        del node[key]
    return d


# Per level: the command that reads the config, a shipped config, the path
# to the object at that level, and a key that no field there takes.
LEVELS = {
    "top": ("check-assumptions", "alpha_p2", ()),
    "design": ("check-assumptions", "alpha_p2", ("design",)),
    "errors": ("check-assumptions", "alpha_p2", ("errors",)),
    "column": ("check-assumptions", "alpha_p2", ("errors", "columns", 0)),
    "clt-top": ("clt-check", "clt_ma1", ()),
    "clt-process": ("clt-check", "clt_ma1", ("process",)),
}
UNKNOWN_KEYS = {
    "top": "theorm", "design": "rows", "errors": "sigma", "column": "omgea",
    "clt-top": "sigma2", "clt-process": "sigma",
}
# Inputs that ran before the spec dataclasses became the config schema.
COLUMN = ("errors", "columns", 0)
ONCE_ACCEPTED = {
    "theorem-misspelt": edited("alpha_p2", (), "theorm", "CON-phi"),
    "sigma-for-sigma2": edited("alpha_p2", ("errors",), "sigma", 4.0),
    "omega-misspelt": edited("alpha_p2", COLUMN, "omgea", 1.0),
    "ma-delta": edited("phi_p2", COLUMN, "delta", 1.0),
    "ma-coeffs-string": edited("phi_p2", COLUMN, "coeffs", "123"),
    "omega-bool": edited("alpha_p2", COLUMN, "omega", True),
    "a-string": edited("alpha_p2", COLUMN, "a", "0.5"),
    "beta-strings": edited("alpha_p2", (), "beta", ["1", "-2"]),
    "beta-bool-among-numbers": edited("alpha_p2", (), "beta", [1.0, True]),
}


def exit_and_error(tmp_path, capsys, command, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code = run(command, "--config", path, "--out", tmp_path / "r.json")
    return code, capsys.readouterr().err


class TestConfigSchema:
    @pytest.mark.parametrize("level", sorted(LEVELS))
    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys, level):
        command, name, path = LEVELS[level]
        key = UNKNOWN_KEYS[level]
        code, err = exit_and_error(tmp_path, capsys, command, edited(name, path, key, 1.0))
        assert code == EXIT_CONFIG
        assert err.startswith(f"error: unknown key {key!r}") and err.count("\n") == 1

    @pytest.mark.parametrize("name", sorted(ONCE_ACCEPTED))
    @pytest.mark.parametrize("command", ["check-assumptions", "mc-consistency"])
    def test_once_accepted_inputs_exit_2(self, tmp_path, capsys, command, name):
        code, err = exit_and_error(tmp_path, capsys, command, ONCE_ACCEPTED[name])
        assert code == EXIT_CONFIG
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "level, key",
        [("top", "beta"), ("top", "master_seed"), ("design", "kind"), ("column", "kind"),
         ("clt-top", "n"), ("clt-process", "kind")],
    )
    def test_missing_required_key(self, tmp_path, capsys, level, key):
        command, name, path = LEVELS[level]
        code, err = exit_and_error(tmp_path, capsys, command, edited(name, path, key))
        assert code == EXIT_CONFIG
        assert "missing required key" in err and repr(key) in err

    @pytest.mark.parametrize("name", ["alpha_p2", "phi_p2"])
    def test_shipped_configs_are_their_own_to_dict(self, name):
        d = shipped(name)
        assert json.dumps(ExperimentConfig.from_dict(d).to_dict()) == json.dumps(d)

    @pytest.mark.parametrize("name, path", [("alpha_p2", "alpha"), ("phi_p2", "phi")])
    def test_shipped_configs_are_the_presets(self, name, path):
        # The benchmark and the README commands read the JSON files; the other
        # tests build from presets.
        assert shipped(name) == default_config(path, beta=(1.0, -2.0)).to_dict()

    def test_shipped_clt_process_is_its_own_to_dict(self):
        d = shipped("clt_ma1")["process"]
        assert json.dumps(ErrorProcessSpec.from_dict(d).to_dict()) == json.dumps(d)


class TestSizeLimits:
    """Sizes above MAX_LENGTH fail before anything is allocated, and a resample
    count whose Grams cannot be held fails before any start is drawn."""

    @pytest.mark.parametrize(
        "changes",
        [{"n_grid": [40, 1e300]}, {"n_grid": [40, 10**30]}, {"replications": 10**30}],
        ids=["n_grid-1e300", "n_grid-10**30", "replications-10**30"],
    )
    def test_experiment_sizes(self, tmp_path, capsys, changes):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(alpha_config_dict(**changes)))
        assert run("mc-consistency", "--config", path, "--out", tmp_path / "r.json") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key", ["n", "replications"], ids=["clt-n", "clt-replications"])
    def test_clt_check_sizes(self, tmp_path, capsys, key):
        config = {**shipped("clt_ma1"), key: 10**30}
        code, err = exit_and_error(tmp_path, capsys, "clt-check", config)
        assert code == EXIT_CONFIG
        assert err.startswith("error: ")
        assert MAX_LENGTH < 10**30

    @pytest.mark.parametrize(
        "argv",
        [["gen", "--config", SHIPPED_CONFIGS / "alpha_p2.json", "--n", 10**30]],
        ids=["gen-n"],
    )
    def test_command_line_sizes(self, tmp_path, capsys, argv):
        assert run(*argv, "--out", tmp_path / "out") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert MAX_LENGTH < 10**30

    def test_bootstrap_resample_count(self):
        with pytest.raises(InvalidParams, match="at most"):
            BootstrapConfig(n_boot=MAX_LENGTH + 1)

    @pytest.mark.parametrize(
        "csv, n_boot, error, message",
        # At p = 1, 10**17 estimates take 8e17 bytes and MAX_LENGTH estimates
        # about 2^63 bytes, past any address space; at p = 2, MAX_LENGTH resamples
        # have more estimates than MAX_LENGTH.
        [
            (CLEAN_CSV, 10**17, MemoryError, "error: out of memory: "),
            (CLEAN_CSV, MAX_LENGTH, MemoryError, "error: out of memory: "),
            (CLEAN_CSV_P2, MAX_LENGTH, InvalidParams, "error: n_boot * p"),
        ],
        ids=["n_boot-10**17", "n_boot-MAX_LENGTH", "p2-n_boot-MAX_LENGTH"],
    )
    def test_unholdable_resamples_draw_no_start(self, tmp_path, monkeypatch, capsys, csv, n_boot, error, message):
        def drawn(*args):
            raise AssertionError("a block start was drawn")

        monkeypatch.setattr(eivtls.bootstrap, "bounded_integers", drawn)
        data = tmp_path / "d.csv"
        data.write_text(csv)
        with pytest.raises(error):
            block_bootstrap_ci(*read_dataset_csv(data), BootstrapConfig(block_length=2, n_boot=n_boot))
        argv = ["--data", data, "--block-length", 2, "--n-boot", n_boot, "--out", tmp_path / "r.json"]
        assert run("bootstrap-ci", *argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(message)

    def test_memory_error_exits_2(self, tmp_path, monkeypatch, capsys):
        def exhausted(x, y):
            raise MemoryError("Unable to allocate")

        data = tmp_path / "d.csv"
        data.write_text(CLEAN_CSV)
        monkeypatch.setattr(eivtls.cli, "tls_fit", exhausted)
        assert run("fit", "--data", data, "--out", tmp_path / "r.json") == EXIT_CONFIG
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate\n"


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
    """False for a number above SIZE_CAP put at a size key, unless no array can hold it.

    A size above MAX_LENGTH is refused before anything is allocated."""
    sized = path[-1] in SIZE_KEYS or path[0] == "n_grid"
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return not (sized and number and SIZE_CAP < value < MAX_LENGTH)


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
        code = run("mc-consistency", "--config", config_path, "--out", out, "--tables", tab)
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

    def test_bootstrap_ci_defaults_are_the_config_defaults(self, tmp_path, monkeypatch, config_path):
        data = tmp_path / "bdata.csv"
        run("gen", "--config", config_path, "--n", 300, "--out", data)
        reports = []
        for argv in ([], ["--n-boot", 999, "--level", 0.95, "--seed", 0]):
            out = tmp_path / f"ci{len(reports)}.json"
            assert run("bootstrap-ci", "--data", data, *argv, "--out", out) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

        @dataclasses.dataclass(frozen=True)
        class FewerResamples(BootstrapConfig):
            n_boot: int = 299

        monkeypatch.setattr(eivtls.cli, "BootstrapConfig", FewerResamples)
        out = tmp_path / "ci299.json"
        assert run("bootstrap-ci", "--data", data, "--out", out) == EXIT_OK
        assert json.loads(out.read_text())["config"]["n_boot"] == 299

    def test_threads_do_not_change_report_bytes(self, tmp_path, draw_policy, config_path):
        # (p + 1) n = 160 floats per replication at n = 80: chunks of 15
        # replications on the calling thread against chunks of 5 on three
        # workers, so every worker draws several chunks.
        outs = []
        for rows, workers, threads in ((15, 1, 1), (5, 3, 8)):
            draw_policy(elements=rows * 160, cpus=workers)
            out, tables = tmp_path / f"mc{workers}.json", tmp_path / f"mc{workers}.csv"
            argv = ["--threads", threads, "--out", out, "--tables", tables]
            assert run("mc-consistency", "--config", config_path, *argv) == EXIT_OK
            outs.append((out.read_bytes(), tables.read_bytes()))
        assert outs[0] == outs[1]


EXPERIMENT_KEYS = ["kind", "config", "master_seed", "assumptions", "assumption_override"]
REPORT_KEYS = {
    "fit": ["command", "data", "n", "beta_hat", "lambda", "sigma2_hat", "eigenvector", "delta_n"],
    "check-assumptions": ["command", "config", "master_seed", "assumptions"],
    "mc-consistency": [*EXPERIMENT_KEYS, "cells"],
    "mc-normality": [
        *EXPERIMENT_KEYS, "normality", "normality_n", "mean_within_4se",
        "nongeneric_failures", "illconditioned_failures",
    ],
    "long-run-check": [*EXPERIMENT_KEYS, "long_run", "long_run_direction"],
    "clt-check": [
        "command", "config", "master_seed", "n", "replications", "ks_d", "ks_pvalue",
        "varsigma2_estimate",
    ],
    "bootstrap-ci": [
        "command", "config", "master_seed", "point_estimate", "lower", "upper", "level",
        "block_length", "n_boot_effective", "failure_count",
    ],
}
TABLE_HEADERS = {
    "mc-consistency": "n,successes,nongeneric_failures,illconditioned_failures,"
    "median_beta_err,iqr_beta_err,median_lambda_dev,ols_median_beta_err",
    "mc-normality": "dev1",
    "clt-check": "s_over_sigma",
}


class TestReportLayout:
    """What each subcommand writes: its top-level keys in order, and its --tables header."""

    @pytest.mark.parametrize("command", sorted(REPORT_KEYS))
    def test_keys_and_table_header(self, tmp_path, config_path, command):
        data, clt = tmp_path / "d.csv", tmp_path / "clt.json"
        assert run("gen", "--config", config_path, "--n", 300, "--out", data) == EXIT_OK
        clt.write_text(json.dumps({
            "process": {"kind": "ma", "coeffs": [1.0, 1.0]}, "n": 500, "replications": 500,
        }))
        argv = {
            "fit": ["--data", data],
            "bootstrap-ci": ["--data", data, "--n-boot", 199],
            "clt-check": ["--config", clt],
        }.get(command, ["--config", config_path])
        out, table = tmp_path / "r.json", tmp_path / "t.csv"
        if command in TABLE_HEADERS:
            argv += ["--tables", table]
        assert run(command, *argv, "--out", out) == EXIT_OK
        assert list(json.loads(out.read_text())) == ["artifact_version", *REPORT_KEYS[command]]
        if command in TABLE_HEADERS:
            assert table.read_text().splitlines()[0] == TABLE_HEADERS[command]


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

    random_imported = "numpy.random" in sys.modules
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
        "random_imported": random_imported,
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
        out = json.loads(run_script(SCIPY_ON_FIRST_USE, tmp_path).splitlines()[-1])
        assert out["codes"] == [EXIT_OK] * 3
        # numpy.random, too, loads on the first draw, not on import.
        assert not out["random_imported"]
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
    @pytest.mark.parametrize(
        "argv",
        [
            # n = 2000 and R = 100 make several chunks, so an unrestricted run
            # on more than one CPU draws them on more than one thread.
            ["mc-normality", "--config", "alpha.json", "--tables", "{mode}.csv"],
            # The block length and resample count at their defaults.
            ["bootstrap-ci", "--data", "phi.csv"],
        ],
        ids=["mc-normality", "bootstrap-ci"],
    )
    def test_one_cpu_report_bytes_equal_unrestricted(self, tmp_path, argv):
        cfg = default_config("alpha", beta=(1.0,), n_grid=(500, 2000), replications=100)
        (tmp_path / "alpha.json").write_text(json.dumps(cfg.to_dict()))
        phi = SHIPPED_CONFIGS / "phi_p2.json"
        assert run("gen", "--config", phi, "--n", 2000, "--out", tmp_path / "phi.csv") == EXIT_OK
        outputs = []
        for mode in ("one-cpu", "all-cpus"):
            args = [a.format(mode=mode) for a in argv]
            run_script(ONE_CPU_RUN, mode, *args, "--out", f"{mode}.json", cwd=tmp_path)
            outputs.append(sorted(p.read_bytes() for p in tmp_path.glob(f"{mode}.*")))
        assert outputs[0] == outputs[1]
