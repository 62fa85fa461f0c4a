"""Per-layer metrics of a traced run.

Which end-to-end metric each layer figure should move, and where it should
stay flat (``README.md`` has the full table):

* ``processes.*``, ``model.*``, ``seeding.*`` -- ``unit_ref_ratio`` on
  long-run most, then normality; flat on bootstrap, except
  ``seeding.stream`` (per-resample RNG set-up there).
* ``estimator.*``, ``linalg.*`` -- bootstrap most, then consistency and
  normality; flat on long-run, where ``estimator.tls_fit.calls`` is 0.
* ``stats.*`` -- normality only.
* ``montecarlo.*`` -- consistency (the only threads=2 workload).  Span times
  there include waiting for the interpreter lock.
* ``bootstrap.*`` -- bootstrap only.
* ``mixing.*``, ``io.*``, ``cli.main`` -- ``setup_s``.

Counts (``calls``, ``failed``, ``resamples`` and the computed
``processes.bytes_out`` and ``estimator.gram_flops``) repeat exactly for a
given workload, so they show that a change leaves the work done unchanged.
"""

from __future__ import annotations

import statistics

from tracing import per_unit_table


def _get(name: str):
    return lambda row, threads: row.get(name, 0)


def _sum(*names: str):
    return lambda row, threads: sum(row.get(n, 0) for n in names)


def _prefixed(prefix: str, field: str):
    suffix = "." + field
    return lambda row, threads: sum(
        v for k, v in row.items() if k.startswith(prefix) and k.endswith(suffix)
    )


def _efficiency(row, threads):
    wall = row.get("montecarlo.run.wall_s", 0.0)
    return row.get("montecarlo.pool.busy_s", 0.0) / (threads * wall) if wall else 0.0


def _refit_ok(row, threads):
    attempted = row.get("bootstrap.resamples", 0)
    return row.get("bootstrap.kept", 0) / attempted if attempted else 0.0


# (metric, unit, value of one unit's row of ``per_unit_table``).
METRICS = (
    ("processes.generate_error_matrix.self_s", "s", _get("processes.generate_error_matrix.self_s")),
    ("processes.generate_sequence.ar1.self_s", "s", _get("processes.generate_sequence.ar1.self_s")),
    ("processes.generate_sequence.ma.self_s", "s", _get("processes.generate_sequence.ma.self_s")),
    (
        "processes.generate_sequence.iid_gaussian.self_s",
        "s",
        _get("processes.generate_sequence.iid_gaussian.self_s"),
    ),
    ("processes.generate_sequence.calls", "count", _prefixed("processes.generate_sequence.", "calls")),
    ("processes.bytes_out", "bytes", _get("processes.bytes_out")),
    ("model.synthesize.calls", "count", _get("model.synthesize.calls")),
    ("model.synthesize.self_s", "s", _get("model.synthesize.self_s")),
    ("model.build_design.self_s", "s", _get("model.build_design.self_s")),
    ("seeding.stream.calls", "count", _get("seeding.stream.calls")),
    ("seeding.stream.self_s", "s", _get("seeding.stream.self_s")),
    (
        "seeding.derive.self_s",
        "s",
        _sum("seeding.derive_subseed.self_s", "seeding.column_subseed.self_s", "seeding.splitmix64.self_s"),
    ),
    ("estimator.tls_fit.calls", "count", _get("estimator.tls_fit.calls")),
    ("estimator.tls_fit.self_s", "s", _get("estimator.tls_fit.self_s")),
    ("estimator.tls_fit.failed", "count", _get("estimator.tls_fit.raised")),
    ("estimator.ols_fit.self_s", "s", _get("estimator.ols_fit.self_s")),
    ("estimator.gram_flops", "flop", _get("estimator.gram_flops")),
    ("linalg.sym_eig.calls", "count", _get("linalg.sym_eig.calls")),
    ("linalg.sym_eig.self_s", "s", _get("linalg.sym_eig.self_s")),
    ("linalg.solve_spd.self_s", "s", _get("linalg.solve_spd.self_s")),
    ("linalg.cholesky.self_s", "s", _get("linalg.cholesky.self_s")),
    ("linalg.validate.self_s", "s", _sum("linalg.as_matrix.self_s", "linalg.as_vector.self_s")),
    ("stats.normality_battery.self_s", "s", _get("stats.normality_battery.self_s")),
    ("stats.mardia_tests.self_s", "s", _get("stats.mardia_tests.self_s")),
    ("stats.ks_statistic.self_s", "s", _get("stats.ks_statistic.self_s")),
    ("montecarlo.run.self_s", "s", _prefixed("montecarlo.run_", "self_s")),
    ("montecarlo.pool.busy_s", "s", _get("montecarlo.pool.busy_s")),
    ("montecarlo.pool.efficiency", "ratio", _efficiency),
    ("bootstrap.block_bootstrap_ci.self_s", "s", _get("bootstrap.block_bootstrap_ci.self_s")),
    ("bootstrap.resamples", "count", _get("bootstrap.resamples")),
    ("bootstrap.refit_ok_ratio", "ratio", _refit_ok),
    ("mixing.check_assumptions.self_s", "s", _get("mixing.check_assumptions.self_s")),
    ("io.read.self_s", "s", _prefixed("io.read_", "self_s")),
    ("io.write.self_s", "s", _prefixed("io.write_", "self_s")),
    ("io.bytes_written", "bytes", _get("io.bytes_written")),
    ("cli.main.self_s", "s", _get("cli.main.self_s")),
)

COUNT_UNITS = ("count", "bytes", "flop")
COMPUTED = ("processes.bytes_out", "estimator.gram_flops")


def metrics(spans, counts, threads: int, groups) -> dict:
    """``{metric: (value, unit, note)}``.

    ``groups`` lists the traced units in groups of one unit per error path;
    a group's figure is the mean over its units, and the metric is the
    median over groups, so alternating workloads are not split by path.
    """
    table = per_unit_table(spans, counts)
    note = f"per unit, median of {len(groups)} traced groups of {len(groups[0])}"
    out = {}
    for name, unit, value in METRICS:
        per_group = [statistics.fmean(value(table[u], threads) for u in g) for g in groups]
        median = statistics.median(per_group)
        if unit in COUNT_UNITS:
            median = int(median) if median == int(median) else median
            out[name] = (median, unit, note + ("; computed" if name in COMPUTED else ""))
        else:
            out[name] = (median, unit, note)
    return out
