#!/usr/bin/env python3
"""Regenerate ``reference.json``: the checked values of the first units of
each workload at the default seed.

    python3 perfbench/make_reference.py [workload ...]

Only for a change that is meant to alter results; the benchmark compares
every default-seed unit with these values.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (imports eivtls from the checkout's src/)

# More units than a run of the default length completes on a machine twice
# as fast as the 2-CPU reference machine.
UNITS = {"normality": 24, "consistency": 32, "long-run": 80, "bootstrap": 192}


def main(names) -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        ctx = wl.setup(HERE.parent)
        wl.prepare(ctx, work, workloads.DEFAULT_SEED)
        reference[name] = [
            wl.values(wl.report(ctx, wl.run_unit(ctx, unit))) for unit in range(UNITS[name])
        ]
        print(f"{name}: {UNITS[name]} units", flush=True)
    path.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
