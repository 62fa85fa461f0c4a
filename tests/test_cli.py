import json

import numpy as np
import pytest

from eivtls.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from eivtls.io import read_dataset_csv, write_dataset_csv
from eivtls.presets import default_config


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


CLT_BAD_N = {
    "process": {"kind": "ma", "coeffs": [1.0, 1.0], "scale": 1.0},
    "n": "abc", "replications": 500, "seed": 3,
}


class TestErrorExits:
    @pytest.mark.parametrize(
        "command, config",
        [
            ("mc-consistency", alpha_config_dict(replications="many")),
            ("mc-consistency", alpha_config_dict(n_grid=[40, "eighty"])),
            ("mc-consistency", alpha_config_dict(beta=["one"])),
            ("mc-consistency", ar1_without_a()),
            ("mc-consistency", alpha_config_dict(design="repeating_block")),
            ("clt-check", CLT_BAD_N),
            ("clt-check", {**CLT_BAD_N, "n": 500, "process": "ma"}),
        ],
        ids=[
            "replications-string",
            "n_grid-string",
            "beta-string",
            "ar1-without-a",
            "design-string",
            "clt-n-string",
            "clt-process-string",
        ],
    )
    def test_malformed_config_is_config_error(self, tmp_path, capsys, command, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        assert run(command, "--config", path, "--out", tmp_path / "r.json") == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

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


class TestExperimentCommands:
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

    def test_threads_do_not_change_report_bytes(self, tmp_path, config_path):
        outs = []
        for threads in (1, 8):
            out = tmp_path / f"mc{threads}.json"
            run("mc-consistency", "--config", config_path, "--threads", threads, "--out", out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
