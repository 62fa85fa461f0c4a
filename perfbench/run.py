#!/usr/bin/env python3
"""eivtls benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload normality --seed 0 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from that
checkout's ``src/``.  Unit 0 is an untimed warm-up (and, on ``consistency``,
the determinism check); units 1, 2, ... run back to back until ``--seconds``
have passed.  Every unit's report is checked (see ``checks.py``).

``--trace 0`` prints the end-to-end metrics.  The host's speed swings by up
to 1.8x, in phases of seconds and drifts over minutes, which moves a run's
median unit time by 8-50% from run to run.  So the bounded time metric is
``unit_ref_ratio``: the median over units of a unit's wall time divided by
the mean time of the fixed reference kernel (``hostref.py``) run just before
and just after it.  The wall-time figures (fastest, median, tail) and the
throughput are printed beside it but left out of the JSON line.
``setup_s`` is the median of ``SETUP_RUNS`` fresh interpreters, spread
evenly over the measured phase (their time does not count against it) so
that they sample the host's phases as the units do.

``--trace 1`` alternates pairs of untraced and traced units, and prints
per-layer metrics from the traced ones plus the tracing overhead.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import hostref
import layers
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
SETUP_RUNS = 3
TAIL_BEYOND = 10


def environment() -> dict:
    """Recorded with every result; BLAS thread settings are read, never set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_seconds(workload: str) -> float:
    """Fresh interpreter to first unit ready: one ``setup_probe.py`` child."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe for {workload} failed with exit code {code}")
    return elapsed


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND units beyond it: (value, percentile).

    The percentile is never taken below the median: a run of fewer than
    2 * TAIL_BEYOND units reports its median.
    """
    ordered = sorted(times)
    rank = max(len(ordered) - TAIL_BEYOND, (len(ordered) + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


class Tally:
    """Units attempted and failed, fits attempted and failed, and the problems seen."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.attempted = self.failed = 0
        self.fits = self.fit_failures = 0
        self.reps = 0  # replications completed by the measured units
        self.problems: list[str] = []
        self.last_out = None

    def unit(self, ctx, unit: int):
        """Run and check one unit; returns its wall time, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = self.wl.run_unit(ctx, unit)
        except Exception as exc:  # a failing unit is counted, and the run goes on
            self.fail(unit, [f"raised {type(exc).__name__}: {exc}"])
            return None
        elapsed = time.perf_counter() - start
        self.last_out = out
        try:
            values = self.wl.values(self.wl.report(ctx, out))
            problems = self.wl.invariants(values)
            if self.reference is not None and unit < len(self.reference):
                problems += checks.compare(values, self.reference[unit])
            attempted, failed = self.wl.fits(values)
        except (KeyError, TypeError, ValueError) as exc:
            self.fail(unit, [f"unreadable report: {type(exc).__name__}: {exc}"])
            return elapsed
        self.fits += attempted
        self.fit_failures += failed
        if unit > 0:  # the warm-up is outside the measured phase
            self.reps += self.wl.reps(values)
        if problems:
            self.fail(unit, problems)
        return elapsed

    def extra(self, unit: int, problems: list[str]) -> None:
        """A check outside the timed units (the determinism rerun) counts as a unit."""
        self.attempted += 1
        if problems:
            self.fail(unit, problems)

    def fail(self, unit: int, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"unit {unit}: {p}" for p in problems]


def run(args, workloads) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == workloads.DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text())[wl.name]
    ctx = wl.setup(ROOT)
    WORK.mkdir(exist_ok=True)
    wl.prepare(ctx, WORK, args.seed)
    tally = Tally(wl, reference)

    warm = tally.unit(ctx, 0)
    if warm is not None and hasattr(wl, "determinism"):
        tally.extra(0, wl.determinism(ctx, 0, tally.last_out.read_bytes()))

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], {}  # untraced wall times; traced unit -> wall time
    ratios = []  # untraced wall time / reference kernel time around the unit
    setup = []
    setup_runs = 0 if args.trace else SETUP_RUNS
    unit = 1
    measured = 0.0  # seconds of the measured phase, set-up probes excluded
    ref_before = None
    min_units = 4 if tracer else 1  # trace mode needs an untraced and a traced pair
    while measured < args.seconds or len(setup) < setup_runs or unit <= min_units:
        if len(setup) < setup_runs and measured >= len(setup) * args.seconds / setup_runs:
            setup.append(setup_seconds(wl.name))
            ref_before = None
            continue
        start = time.perf_counter()
        if ref_before is None:
            ref_before = hostref.seconds()
        # Trace mode: units 1-2 untraced, 3-4 traced, ...; each pair covers
        # both error paths of the alternating workloads.
        trace_this = tracer is not None and (unit - 1) // 2 % 2 == 1
        if trace_this:
            tracer.install()
            try:
                with tracer.unit_span(unit):
                    elapsed = tally.unit(ctx, unit)
            finally:
                tracer.uninstall()
        else:
            elapsed = tally.unit(ctx, unit)
        ref_after = hostref.seconds()
        measured += time.perf_counter() - start
        if elapsed is not None and trace_this:
            traced[unit] = elapsed
        elif elapsed is not None:
            plain.append(elapsed)
            ratios.append(2.0 * elapsed / (ref_before + ref_after))
        ref_before = ref_after
        unit += 1

    result = {
        "workload": wl.name,
        "seed": args.seed,
        "tally": tally,
        "env": environment(),
    }
    if tracer is None:
        result["metrics"], result["printed"] = end_to_end(setup, plain, ratios, tally)
    else:
        result["metrics"] = per_layer(tracer, wl, plain, traced)
        save_spans(tracer, wl.name)
    return result


def end_to_end(setup, times, ratios, tally) -> tuple[dict, dict]:
    """(metrics of the JSON line, metrics only printed)."""
    if not times:
        raise RuntimeError("no unit completed in the measured phase")
    value, pct = tail(times)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh interpreters"),
        "unit_ref_ratio": (statistics.median(ratios), "ratio", f"median of {len(ratios)} units / reference kernel"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB", "ru_maxrss of the benchmark process"),
    }
    printed = {
        "unit_s_min": (min(times), "s", f"fastest of {len(times)} units"),
        "unit_s_p50": (statistics.median(times), "s", f"{len(times)} units; moves with the host's speed"),
        "unit_s_tail": (value, "s", f"p{pct:.1f} of {len(times)} units; moves with the host's speed"),
        "reps_per_s": (tally.reps / sum(times), "1/s", f"{tally.reps} replications; moves with the host's speed"),
    }
    return metrics, printed


def per_layer(tracer, wl, plain, traced) -> dict:
    groups = [(u, u + 1) for u in sorted(traced) if u % 2 == 1 and u + 1 in traced]
    if not plain or not groups:
        raise RuntimeError("trace mode needs an untraced unit and a complete traced pair")
    metrics = layers.metrics(tracer.spans, tracer.counts, wl.threads, groups)
    traced = list(traced.values())
    overhead = statistics.median(traced) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = (
        overhead,
        "ratio",
        f"median traced unit / median untraced unit, {len(traced)} vs {len(plain)} units",
    )
    return metrics


def save_spans(tracer, name: str) -> None:
    """Write the run's spans out once it has ended."""
    names = sorted({s[3] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    cols = list(zip(*tracer.spans))
    np.savez(
        WORK / f"spans-{name}.npz",
        id=np.array(cols[0], dtype=np.int64),
        parent=np.array(cols[1], dtype=np.int64),
        unit=np.array(cols[2], dtype=np.int32),
        name=np.array([index[n] for n in cols[3]], dtype=np.int32),
        start=np.array(cols[4], dtype=float),
        end=np.array(cols[5], dtype=float),
        raised=np.array(cols[6], dtype=bool),
        names=np.array(names),
    )


def report(result: dict) -> None:
    tally = result["tally"]
    print(f"workload {result['workload']}  seed {result['seed']}")
    for name, (value, unit, note) in {**result["metrics"], **result.get("printed", {})}.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {name:44s} {shown} {unit:6s} {note}")
    if "setup_s" in result["metrics"]:
        ratio = tally.failed / tally.attempted
        print(f"  {'fail_frac':44s} {ratio:14.6g} {'ratio':6s} {tally.failed}/{tally.attempted} units")
        fits = tally.fits
        frac = tally.fit_failures / fits if fits else 0.0
        print(f"  {'fit_fail_frac':44s} {frac:14.6g} {'ratio':6s} {tally.fit_failures}/{fits} fits")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit, _note) in result["metrics"].items()
                },
            }
        )
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="seed 0 is checked against reference.json")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "eivtls" / "__init__.py").is_file():
        print(f"error: no eivtls sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eivtls

    if not Path(eivtls.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: eivtls was imported from {eivtls.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    report(run(args, workloads))
    return 0


if __name__ == "__main__":
    sys.exit(main())
