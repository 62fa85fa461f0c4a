"""Child process for ``setup_s``: prints ``ready`` once the first unit could start.

    python3 perfbench/setup_probe.py <workload>

The parent times from starting this interpreter to reading the line, which
covers the interpreter start, the eivtls import, config resolution and the
assumption check.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (imports eivtls from the checkout's src/)

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]].setup(ROOT)
    print("ready", flush=True)
