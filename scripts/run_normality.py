#!/usr/bin/env python3
"""Run the asymptotic-normality experiment at a single sample size and print
the normality battery verdicts for both exemplar error paths.

Usage:
    python3 scripts/run_normality.py [--n N] [--replications R] [--out-dir DIR]
"""

import argparse
import json
import os

from eivtls.montecarlo import run_normality
from eivtls.presets import default_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--replications", type=int, default=2000)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    for path in ("alpha", "phi"):
        cfg = default_config(
            path, beta=(1.0, -2.0), n_grid=(args.n,), replications=args.replications
        )
        report = run_normality(cfg)
        nb = report.normality
        out = os.path.join(args.out_dir, f"normality_{path}.json")
        with open(out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"== {path} path, n={args.n}, R={args.replications} ==")
        print(f"  Mardia skewness p = {nb.mardia_skewness_pvalue:.4f}")
        print(f"  Mardia kurtosis p = {nb.mardia_kurtosis_pvalue:.4f}")
        for label, d, p in nb.ks_projection_stats:
            print(f"  KS {label:<8} D = {d:.4f}  p = {p:.4f}")
        print(f"  mean within 4 SE of zero: {report.mean_within_4se}")
        print(f"report written to {out}")


if __name__ == "__main__":
    main()
