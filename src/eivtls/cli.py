"""Command-line entry point.

Exit codes: 0 on success, 2 on configuration or usage errors, 3 on
numerical failures (degenerate or ill-conditioned eigenproblem, singular
covariance, too many bootstrap refit failures).  Every report embeds the
fully resolved config, the master seed, the package version, and the
assumption verdict where one applies; all files are written atomically.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .bootstrap import BootstrapConfig, block_bootstrap_ci
from .errors import ConfigError, InvalidParams, NumericalError
from .estimator import tls_fit
from .io import (
    read_dataset_csv,
    read_json,
    write_dataset_csv,
    write_report_json,
    write_table_csv,
)
from .linalg import as_integer, check_keys
from .mixing import check_assumptions
from .model import synthesize
from .montecarlo import (
    ExperimentConfig,
    run_consistency,
    run_long_run_check,
    run_normality,
)
from .processes import ErrorProcessSpec
from .stats import clt_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_experiment(path: str, seed_override: int | None) -> ExperimentConfig:
    d = read_json(path)
    if seed_override is not None:
        d["master_seed"] = seed_override
    return ExperimentConfig.from_dict(d)


def _base_report(extra: dict) -> dict:
    return {"artifact_version": __version__, **extra}


def _cmd_gen(args) -> int:
    cfg = _load_experiment(args.config, args.seed)
    n = args.n if args.n is not None else cfg.n_grid[-1]
    inst = synthesize(cfg.design, cfg.beta, cfg.errors, n, cfg.master_seed)
    write_dataset_csv(args.out, inst.x, inst.y)
    return EXIT_OK


def _cmd_fit(args) -> int:
    x, y = read_dataset_csv(args.data)
    fit = tls_fit(x, y)
    report = _base_report(
        {
            "command": "fit",
            "data": args.data,
            "n": fit.n,
            "beta_hat": fit.beta_hat.tolist(),
            "lambda": fit.lam,
            "sigma2_hat": fit.sigma2_hat,
            "eigenvector": fit.v.tolist(),
            "delta_n": fit.delta_n.tolist(),
        }
    )
    write_report_json(args.out, report)
    return EXIT_OK


def _cmd_check_assumptions(args) -> int:
    cfg = _load_experiment(args.config, args.seed)
    theorem = args.theorem or cfg.theorem
    report = check_assumptions(theorem, cfg.design, cfg.errors)
    write_report_json(
        args.out,
        _base_report(
            {
                "command": "check-assumptions",
                "config": cfg.to_dict(),
                "master_seed": cfg.master_seed,
                "assumptions": report.to_dict(),
            }
        ),
    )
    return EXIT_OK


def _direction(text: str | None, p: int) -> np.ndarray:
    """The long-run-check ``--t`` vector; the normalized all-ones one by default."""
    if text is None:
        return np.ones(p + 1) / np.sqrt(p + 1)
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as exc:
        raise InvalidParams(f"--t must be comma-separated numbers: {exc}") from None


def _cmd_experiment(args, run) -> int:
    """mc-consistency, mc-normality and long-run-check: ``run`` the experiment."""
    cfg = _load_experiment(args.config, args.seed)
    direction = (_direction(args.t, cfg.design.p),) if "t" in vars(args) else ()
    report = run(
        cfg, *direction, threads=args.threads, override_assumptions=args.override_assumptions
    )
    write_report_json(args.out, _base_report(report.to_dict()))
    if getattr(args, "tables", None):
        write_table_csv(args.tables, *report.table())
    return EXIT_OK


def _cmd_clt_check(args) -> int:
    d = read_json(args.config)
    check_keys(d, ("process", "n", "replications", "seed"), "clt-check config")
    try:
        spec = ErrorProcessSpec.from_dict(d["process"])
        n = args.n if args.n is not None else as_integer(d["n"], "n")
        reps = (
            args.replications
            if args.replications is not None
            else as_integer(d["replications"], "replications")
        )
    except KeyError as exc:
        raise InvalidParams(f"clt-check config is missing required key {exc}") from None
    seed = args.seed if args.seed is not None else as_integer(d.get("seed", 0), "seed")
    report = clt_check(spec, n, reps, seed)
    write_report_json(
        args.out,
        _base_report(
            {
                "command": "clt-check",
                "config": {"process": spec.to_dict(), "n": n, "replications": reps},
                "master_seed": seed,
                **report.to_dict(),
            }
        ),
    )
    if args.tables:
        write_table_csv(args.tables, ["s_over_sigma"], report.s_over_sigma[:, None].tolist())
    return EXIT_OK


def _cmd_bootstrap_ci(args) -> int:
    x, y = read_dataset_csv(args.data)
    block = "auto" if args.block_length is None else args.block_length
    cfg = BootstrapConfig(
        block_length=block,
        n_boot=args.n_boot,
        level=args.level,
        seed=args.seed if args.seed is not None else 0,
    )
    ci = block_bootstrap_ci(x, y, cfg)
    write_report_json(
        args.out,
        _base_report(
            {
                "command": "bootstrap-ci",
                "config": {
                    "block_length": cfg.block_length,
                    "n_boot": cfg.n_boot,
                    "level": cfg.level,
                },
                "master_seed": cfg.seed,
                **ci.to_dict(),
            }
        ),
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eivtls",
        description="TLS estimation for errors-in-variables data with dependent "
        "errors, with Monte Carlo verification experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, out_required=True):
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--out", required=out_required, help="output file path")

    sp = sub.add_parser("gen", help="synthesize a dataset and write it as CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--n", type=int, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("fit", help="TLS fit of a dataset CSV")
    sp.add_argument("--data", required=True)
    common(sp)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("check-assumptions", help="evaluate theorem assumptions")
    sp.add_argument("--config", required=True)
    sp.add_argument("--theorem", default=None)
    common(sp)
    sp.set_defaults(func=_cmd_check_assumptions)

    for name, run, tables in (
        ("mc-consistency", run_consistency, True),
        ("mc-normality", run_normality, True),
        ("long-run-check", run_long_run_check, False),
    ):
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True)
        sp.add_argument(
            "--threads", type=int, default=1,
            help="ignored; replications are drawn on one thread per usable CPU "
            "(set by CPU affinity), and reports do not depend on the count",
        )
        sp.add_argument("--override-assumptions", action="store_true")
        if tables:
            sp.add_argument("--tables", default=None, help="companion CSV table path")
        if name == "long-run-check":
            sp.add_argument("--t", default=None, help="projection direction, comma separated")
        common(sp)
        sp.set_defaults(func=functools.partial(_cmd_experiment, run=run))

    sp = sub.add_parser("clt-check", help="normalized-partial-sum normality check")
    sp.add_argument("--config", required=True)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--replications", type=int, default=None)
    sp.add_argument("--tables", default=None)
    common(sp)
    sp.set_defaults(func=_cmd_clt_check)

    sp = sub.add_parser("bootstrap-ci", help="moving-block bootstrap interval")
    sp.add_argument("--data", required=True)
    sp.add_argument("--block-length", type=int, default=None)
    sp.add_argument("--n-boot", type=int, default=999)
    sp.add_argument("--level", type=float, default=0.95)
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
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
