"""The four benchmark workloads.

Each is a closed loop: one client in one process, and each unit starts after
the previous one finishes.  Unit ``i`` of a run draws its seed from
``(workload seed, i)``; unit 0 is the untimed warm-up.

* ``normality``   -- one ``montecarlo.run_normality`` call, threads=1, in the
  shape of acceptance criterion 06 (p=2, 5x default block, beta=(1,-2),
  n=2000, R=2000); units alternate the AR(1) and MA(2) error paths.  The
  largest share of the test suite, and the only workload that runs ``stats``.
* ``consistency`` -- one in-process ``eivtls mc-consistency --threads 2`` on
  the shipped ``alpha_p2.json`` / ``phi_p2.json`` (alternating).  The main
  command at preset size; the only workload that runs the thread pool,
  ``ols_fit`` and the report write.
* ``long-run``    -- one ``montecarlo.run_long_run_check`` call, threads=1, in
  the shape of criterion 08 (p=1, MA(1), n in {1000, 4000, 16000}, R=500).
  No TLS fit and the largest n: synthesis dominates.
* ``bootstrap``   -- one in-process ``eivtls bootstrap-ci`` at the CLI defaults
  (B=999, auto block) on an n=1000, p=1, MA(1) dataset in the criterion-10
  design, written before timing.  Refits without synthesis.

Units call the program through module attributes (``montecarlo.run_normality``,
``cli.main``) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from eivtls import cli, mixing, montecarlo
from eivtls import io as eio

import checks

DEFAULT_SEED = 0


def unit_seed(seed: int, unit: int) -> int:
    """63-bit seed of unit ``unit`` of a run with workload seed ``seed``."""
    state = np.random.SeedSequence([seed, unit]).generate_state(1, dtype=np.uint64)
    return int(state[0] >> np.uint64(1))


def _checked_config(d: dict):
    """Resolve an experiment config and run the assumption check, as a run does."""
    cfg = montecarlo.ExperimentConfig.from_dict(d)
    if not mixing.check_assumptions(cfg.theorem, cfg.design, cfg.errors).passed:
        raise RuntimeError(f"assumption check failed for {cfg.theorem}")
    return cfg


class Workload:
    """A workload; ``values``, ``fits`` and ``invariants`` come from ``checks``."""

    name = ""
    threads = 1

    def setup(self, root: Path) -> dict:
        """Config resolution and assumption checks: the part of setup_s after import."""
        raise NotImplementedError

    def prepare(self, ctx: dict, work: Path, seed: int) -> None:
        """Write the run's input files (not part of setup_s)."""
        ctx["seed"] = seed
        ctx["work"] = work

    def run_unit(self, ctx: dict, unit: int):
        """The timed call."""
        raise NotImplementedError

    def report(self, ctx: dict, out) -> dict:
        """The unit's report as a JSON-compatible dict (untimed)."""
        return json.loads(json.dumps(out.to_dict()))

    def reps(self, values: dict) -> int:
        """Replications (or resample refits) one unit completes."""
        raise NotImplementedError


def _shipped_config(root: Path, path: str) -> Path:
    return root / "scripts" / "configs" / f"{path}_p2.json"


class Normality(Workload):
    name = "normality"
    values = staticmethod(checks.normality_values)
    fits = staticmethod(checks.normality_fits)
    invariants = staticmethod(checks.normality_invariants)

    def setup(self, root):
        cfgs = []
        for path in ("alpha", "phi"):
            d = eio.read_json(str(_shipped_config(root, path)))
            d["design"]["block"] = (5.0 * np.asarray(d["design"]["block"])).tolist()
            d.update(beta=[1.0, -2.0], n_grid=[2000], replications=2000)
            _checked_config(d)
            cfgs.append(d)
        return {"configs": cfgs}

    def run_unit(self, ctx, unit):
        d = dict(ctx["configs"][unit % 2], master_seed=unit_seed(ctx["seed"], unit))
        return montecarlo.run_normality(montecarlo.ExperimentConfig.from_dict(d), threads=1)

    def reps(self, values):
        return values["replications"]


class Consistency(Workload):
    name = "consistency"
    threads = 2
    values = staticmethod(checks.consistency_values)
    fits = staticmethod(checks.consistency_fits)
    invariants = staticmethod(checks.consistency_invariants)

    def setup(self, root):
        paths = [_shipped_config(root, p) for p in ("alpha", "phi")]
        for p in paths:
            _checked_config(eio.read_json(str(p)))
        cli.build_parser()
        return {"configs": [str(p) for p in paths]}

    def run_unit(self, ctx, unit, threads=2):
        out = ctx["work"] / f"consistency-t{threads}.json"
        seed = unit_seed(ctx["seed"], unit)
        argv = ["mc-consistency", "--config", ctx["configs"][unit % 2], "--threads", str(threads)]
        code = cli.main(argv + ["--seed", str(seed), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"eivtls mc-consistency exited with {code}")
        return out

    def report(self, ctx, out):
        return json.loads(out.read_bytes())

    def determinism(self, ctx, unit: int, threads_2: bytes) -> list[str]:
        """Rerun ``unit`` with --threads 1; its report must match the threads-2 bytes."""
        return checks.same_bytes(self.run_unit(ctx, unit, threads=1).read_bytes(), threads_2)

    def reps(self, values):
        return values["replications"] * len(checks.cells(values))


class LongRun(Workload):
    name = "long-run"
    values = staticmethod(checks.long_run_values)
    fits = staticmethod(checks.long_run_fits)
    invariants = staticmethod(checks.long_run_invariants)
    N_GRID = (1000, 4000, 16000)
    REPLICATIONS = 500

    def setup(self, root):
        ma1 = {"kind": "ma", "coeffs": [1.0, 1.0], "omega": 1.0}
        d = {
            "design": {"kind": "repeating_block", "block": [[1.0], [1.0]]},
            "beta": [1.0],
            "errors": {"sigma2": 1.0, "columns": [ma1, ma1]},
            "n_grid": list(self.N_GRID),
            "replications": self.REPLICATIONS,
            "master_seed": 0,
            "theorem": "AN-phi",
        }
        _checked_config(d)
        return {"config": d, "t": np.ones(2) / np.sqrt(2.0)}

    def run_unit(self, ctx, unit):
        d = dict(ctx["config"], master_seed=unit_seed(ctx["seed"], unit))
        cfg = montecarlo.ExperimentConfig.from_dict(d)
        return montecarlo.run_long_run_check(cfg, ctx["t"], threads=1)

    def reps(self, values):
        return self.REPLICATIONS * len(self.N_GRID)


class Bootstrap(Workload):
    name = "bootstrap"
    values = staticmethod(checks.bootstrap_values)
    fits = staticmethod(checks.bootstrap_fits)
    invariants = staticmethod(checks.bootstrap_invariants)
    N = 1000

    def setup(self, root):
        cli.build_parser().parse_args(["bootstrap-ci", "--data", "data.csv", "--out", "ci.json"])
        return {}

    def prepare(self, ctx, work, seed):
        """Criterion-10 dataset: z tiles (1, 2), beta = 1, MA(1) errors (1, 1)/sqrt(2)."""
        super().prepare(ctx, work, seed)
        rng = np.random.default_rng([seed, 10])
        eta = rng.standard_normal((self.N + 1, 2))
        w = (eta[1:] + eta[:-1]) / np.sqrt(2.0)
        z = np.tile([1.0, 2.0], self.N // 2)
        x, y = z + w[:, 0], z + w[:, 1]
        lines = ["x1,y"] + [f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())]
        ctx["data"] = work / "bootstrap-data.csv"
        ctx["data"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run_unit(self, ctx, unit):
        out = ctx["work"] / "bootstrap-ci.json"
        seed = unit_seed(ctx["seed"], unit)
        code = cli.main(["bootstrap-ci", "--data", str(ctx["data"]), "--seed", str(seed), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"eivtls bootstrap-ci exited with {code}")
        return out

    def report(self, ctx, out):
        return json.loads(out.read_bytes())

    def reps(self, values):
        return values["n_boot"]


WORKLOADS = {w.name: w for w in (Normality(), Consistency(), LongRun(), Bootstrap())}
