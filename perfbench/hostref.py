"""A fixed reference computation that gauges the host's current speed.

On a shared host the speed of the whole machine swings by up to 1.8x, in
phases of a few seconds and in drifts over minutes, so a unit's wall time
says as much about the neighbours as about the program.  ``run.py`` times
this kernel between consecutive units and reports each unit's wall time as
a multiple of the kernel's time around it.

The kernel is the benchmark's own code, not the program's, so a change to
``src/`` cannot move it.  It mimics the program's mix of work at the
benchmark's sizes: seeded normal draws, an MA filter and an AR(1)
``lfilter`` on n=2000 rows, a 3x3 Gram matrix and its eigen-decomposition,
Mahalanobis distances, a sort, and some scalar Python.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.signal import lfilter

N = 2000
REPS = 300  # 0.15-0.25 s on one core of a shared 2.1 GHz Xeon host


def seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(REPS):
        eta = np.random.default_rng([7, i]).standard_normal((N + 2, 3))
        ma = eta[2:] + 0.5 * eta[1:-1] - 0.3 * eta[:-2]
        ar, _ = lfilter([1.0], [1.0, -0.5], eta[:N, 0], zi=np.zeros(1))
        x = np.column_stack([ma[:, 0] + 1.0, ma[:, 1] - ar, ma[:, 2]])
        w, v = np.linalg.eigh(x.T @ x / N)
        c = x - x.mean(axis=0)
        d = np.einsum("ij,jk,ik->i", c, np.linalg.inv(np.cov(c.T)), c)
        acc += float(w[0]) + float(np.sort(d)[N // 2]) + sum(float(t) for t in v.ravel())
    if not np.isfinite(acc):
        raise RuntimeError("reference kernel gave a non-finite result")
    return time.perf_counter() - start
