#!/usr/bin/env python3
"""Run the consistency experiment for both exemplar error paths and print
the per-n summary table.

Usage:
    python3 scripts/run_consistency.py [--out-dir DIR] [--replications R]
"""

import argparse
import json
import os

from eivtls.montecarlo import run_consistency
from eivtls.presets import default_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results")
    ap.add_argument("--replications", type=int, default=500)
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    for path in ("alpha", "phi"):
        cfg = default_config(path, beta=(1.0, -2.0), replications=args.replications)
        report = run_consistency(cfg)
        out = os.path.join(args.out_dir, f"consistency_{path}.json")
        with open(out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"== {path} path ==")
        print(f"{'n':>6} {'med |b-b*|':>12} {'iqr':>10} {'med |s2 dev|':>13} {'ols med':>10}")
        for c in report.cells:
            print(
                f"{c.n:>6} {c.median_beta_err:>12.5f} {c.iqr_beta_err:>10.5f} "
                f"{c.median_lambda_dev:>13.5f} {c.ols_median_beta_err:>10.5f}"
            )
        print(f"report written to {out}")


if __name__ == "__main__":
    main()
