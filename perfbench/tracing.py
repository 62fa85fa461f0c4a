"""Span tracing from outside the program.

``Tracer.install`` wraps every public function of the eivtls layer modules
and rebinds the wrapper at every module-level binding site in the package
(``montecarlo.tls_fit``, ``stats.sym_eig``, ``cli.read_dataset_csv``, ...),
because the modules import each other's functions by name.  Each call
records one span ``(id, parent, unit, name, start, end, raised)`` in memory;
nothing is written while units run.

Spans opened on a thread with no open span of its own (the montecarlo
thread-pool workers) take the enclosing ``montecarlo.run_*`` span as their
parent.  A span's self time is its duration minus the length of the union
of its children's intervals, so overlapping children on different threads
are not subtracted twice.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "seeding",
    "processes",
    "model",
    "estimator",
    "linalg",
    "stats",
    "montecarlo",
    "bootstrap",
    "mixing",
    "io",
    "cli",
)

UNIT_SPAN = "bench.unit"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _name_generate_sequence(args, kwargs):
    return "processes.generate_sequence." + _arg(args, kwargs, 0, "spec").kind


def _count_error_matrix(args, kwargs, raised, result):
    # Computed bytes of the n x (p+1) float64 error matrix: 8 n (p+1).
    spec = _arg(args, kwargs, 0, "spec")
    n = _arg(args, kwargs, 1, "n")
    return {"processes.bytes_out": 8 * n * len(spec.column_specs)}


def _count_tls_fit(args, kwargs, raised, result):
    # Computed multiply-adds of the (p+1) x (p+1) Gram of [x, y]: n (p+1)^2,
    # also for fits that raise, since the Gram is formed first.
    n, p = np.shape(_arg(args, kwargs, 0, "x"))
    return {"estimator.gram_flops": n * (p + 1) ** 2}


def _count_bootstrap(args, kwargs, raised, result):
    if raised:
        return {}
    kept = result.n_boot_effective
    return {"bootstrap.resamples": kept + result.failure_count, "bootstrap.kept": kept}


def _count_write(args, kwargs, raised, result):
    if raised:
        return {}
    return {"io.bytes_written": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# Span names that depend on the arguments.
NAMERS = {"processes.generate_sequence": _name_generate_sequence}

# Counters taken at the layer boundary:
# hook(args, kwargs, raised, result) -> {key: count}.
COUNTERS = {
    "processes.generate_error_matrix": _count_error_matrix,
    "estimator.tls_fit": _count_tls_fit,
    "bootstrap.block_bootstrap_ci": _count_bootstrap,
    "io.write_report_json": _count_write,
    "io.write_dataset_csv": _count_write,
    "io.write_table_csv": _count_write,
}


class Tracer:
    """Records spans and counters for calls into the eivtls layers."""

    def __init__(self, package: str = "eivtls", layers=LAYERS):
        self.package = package
        self.layers = layers
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []  # (unit, key, value); list.append is atomic
        self.unit = -1
        self.run_span = 0  # open montecarlo.run_* span: the parent of pool-worker spans
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        namer = NAMERS.get(name)
        counter = COUNTERS.get(name)
        is_run = name.startswith("montecarlo.run_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.run_span
            sid = next(tracer._ids)
            label = namer(args, kwargs) if namer else name
            stack.append(sid)
            if is_run:
                outer_run, tracer.run_span = tracer.run_span, sid
            result = None
            raised = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_run:
                    tracer.run_span = outer_run
                tracer.spans.append((sid, parent, tracer.unit, label, start, end, raised))
                if counter is not None:
                    for key, value in counter(args, kwargs, raised, result).items():
                        tracer.counts.append((tracer.unit, key, value))

        return wrapper

    def install(self) -> None:
        """Wrap each public function of every layer at all of its binding sites."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        prefix = self.package + "."
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]
        wrappers = {}
        for layer in self.layers:
            mod = sys.modules[prefix + layer]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def unit_span(self, unit: int):
        """One benchmark unit: the root span of the calls made inside it."""
        self.unit = unit
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        raised = True
        start = time.perf_counter()
        try:
            yield
            raised = False
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, 0, unit, UNIT_SPAN, start, end, raised))
            self.unit = -1


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _unit, _name, start, end, _raised in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _parent, _unit, _name, start, end, _raised in spans:
        kids = children.get(sid)
        covered = union_length(kids, start, end) if kids else 0.0
        out[sid] = (end - start) - covered
    return out


def per_unit_table(spans, counts) -> dict:
    """Aggregate spans and counters per unit.

    Returns ``{unit: {key: value}}`` with, for every span name, ``<name>.calls``,
    ``<name>.self_s`` and ``<name>.raised``; the pool figures
    ``montecarlo.run.wall_s`` and ``montecarlo.pool.busy_s``; and the counters.
    """
    selfs = self_times(spans)
    names = {sid: name for sid, _p, _u, name, _s, _e, _r in spans}
    table: dict = defaultdict(lambda: defaultdict(float))
    for sid, parent, unit, name, start, end, raised in spans:
        row = table[unit]
        row[name + ".calls"] += 1
        row[name + ".self_s"] += selfs[sid]
        row[name + ".raised"] += raised
        if name.startswith("montecarlo.run_"):
            row["montecarlo.run.wall_s"] += end - start
        elif names.get(parent, "").startswith("montecarlo.run_") and not name.startswith(
            ("mixing.", "stats.")
        ):
            # Per-replication work mapped by the run (on a pool worker when
            # threads > 1); the assumption check and the reduce are excluded.
            row["montecarlo.pool.busy_s"] += end - start
    for unit, key, value in counts:
        table[unit][key] += value
    return table
