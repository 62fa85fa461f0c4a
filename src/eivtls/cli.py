"""Command-line entry point.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on
numerical failures (degenerate or ill-conditioned eigenproblem, singular
covariance, too many bootstrap refit failures).  ``main`` writes every
report: a handler returns the body and the object whose ``table()`` is the
``--tables`` CSV, and ``main`` puts the package version first.  Every report
but ``fit``'s (which names its dataset) embeds the resolved config and the
master seed, and ``check-assumptions`` and the experiments the assumption
verdict; ``gen`` writes a dataset.  All files are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, block_bootstrap_ci
from .errors import InvalidParams, NumericalError
from .estimator import tls_fit
from .io import (
    read_dataset_csv,
    read_json,
    write_dataset_csv,
    write_report_json,
    write_table_csv,
)
from .mixing import check_assumptions
from .model import synthesize
from .montecarlo import (
    CltCheckConfig,
    ExperimentConfig,
    clt_check,
    run_consistency,
    run_long_run_check,
    run_normality,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _read_config(path: str, seed_key: str, seed: int | None) -> dict:
    """The config object in ``path``, with ``seed_key`` set to ``--seed`` when one is given."""
    d = read_json(path)
    if seed is not None:
        d[seed_key] = seed
    return d


def _load_experiment(path: str, seed: int | None = None) -> ExperimentConfig:
    return ExperimentConfig.from_dict(_read_config(path, "master_seed", seed))


def _cmd_gen(args) -> None:
    cfg = _load_experiment(args.config, args.seed)
    n = args.n if args.n is not None else cfg.n_grid[-1]
    inst = synthesize(cfg.design, cfg.beta, cfg.errors, n, cfg.master_seed)
    write_dataset_csv(args.out, inst.x, inst.y)


def _cmd_fit(args):
    x, y = read_dataset_csv(args.data)
    fit = tls_fit(x, y)
    return {
        "command": "fit",
        "data": args.data,
        "n": fit.n,
        "beta_hat": fit.beta_hat.tolist(),
        "lambda": fit.lam,
        "sigma2_hat": fit.sigma2_hat,
        "eigenvector": fit.v.tolist(),
        "delta_n": fit.delta_n.tolist(),
    }, None


def _cmd_check_assumptions(args):
    cfg = _load_experiment(args.config)
    report = check_assumptions(cfg.theorem, cfg.design, cfg.errors)
    return {
        "command": "check-assumptions",
        "config": cfg.to_dict(),
        "master_seed": cfg.master_seed,
        "assumptions": report.to_dict(),
    }, None


def _direction(text: str | None, p: int) -> np.ndarray:
    """The long-run-check ``--t`` vector; the normalized all-ones one by default."""
    if text is None:
        return np.ones(p + 1) / np.sqrt(p + 1)
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InvalidParams(f"--t must be comma-separated numbers: {exc}") from None


def _cmd_experiment(args, run):
    """mc-consistency, mc-normality and long-run-check: ``run`` the experiment."""
    cfg = _load_experiment(args.config, args.seed)
    direction = (_direction(args.t, cfg.design.p),) if "t" in vars(args) else ()
    report = run(cfg, *direction, override_assumptions=args.override_assumptions)
    return report.to_dict(), report


def _cmd_clt_check(args):
    given = CltCheckConfig.from_dict(_read_config(args.config, "seed", args.seed))
    report = clt_check(given.process, given.n, given.replications, given.seed)
    cfg = report.config
    return {
        "command": "clt-check",
        "config": {"process": cfg.process.to_dict(), "n": cfg.n, "replications": cfg.replications},
        "master_seed": cfg.seed,
        **report.to_dict(),
    }, report


def _cmd_bootstrap_ci(args):
    x, y = read_dataset_csv(args.data)
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(BootstrapConfig)}
    cfg = BootstrapConfig(**{name: value for name, value in given.items() if value is not None})
    ci = block_bootstrap_ci(x, y, cfg)
    return {
        "command": "bootstrap-ci",
        "config": {"block_length": cfg.block_length, "n_boot": cfg.n_boot, "level": cfg.level},
        "master_seed": cfg.seed,
        **ci.to_dict(),
    }, None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eivtls",
        description="TLS estimation for errors-in-variables data with dependent "
        "errors, with Monte Carlo verification experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--out", required=True, help="output file path")

    sp = sub.add_parser("gen", help="synthesize a dataset and write it as CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--n", type=int, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("fit", help="TLS fit of a dataset CSV")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True, help="output file path")
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("check-assumptions", help="evaluate theorem assumptions")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", required=True, help="output file path")
    sp.set_defaults(func=_cmd_check_assumptions)

    for name, run in (
        ("mc-consistency", run_consistency),
        ("mc-normality", run_normality),
        ("long-run-check", run_long_run_check),
    ):
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True)
        sp.add_argument(
            "--threads", type=int,
            help="ignored: reports do not depend on it; the eivtls.processes "
            "docstring states how replications are drawn",
        )
        sp.add_argument("--override-assumptions", action="store_true")
        if name == "long-run-check":
            sp.add_argument("--t", default=None, help="projection direction, comma separated")
        else:
            sp.add_argument("--tables", default=None, help="companion CSV table path")
        common(sp)
        sp.set_defaults(func=functools.partial(_cmd_experiment, run=run))

    sp = sub.add_parser("clt-check", help="normalized-partial-sum normality check")
    sp.add_argument("--config", required=True)
    sp.add_argument("--tables", default=None)
    common(sp)
    sp.set_defaults(func=_cmd_clt_check)

    sp = sub.add_parser("bootstrap-ci", help="moving-block bootstrap interval")
    sp.add_argument("--data", required=True)
    sp.add_argument("--block-length", type=int, default=None)
    sp.add_argument("--n-boot", type=int, default=None)
    sp.add_argument("--level", type=float, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_bootstrap_ci)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        written = args.func(args)
        if written is not None:  # gen writes its dataset itself
            body, report = written
            write_report_json(args.out, {"artifact_version": __version__, **body})
            if getattr(args, "tables", None):
                write_table_csv(args.tables, *report.table())
    except (InvalidParams, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
