"""Output checks on unit reports; pure functions of report dicts.

Each workload reduces a unit's report to ``values``: a flat dict of named
results.  On the default seed the values are compared with the stored
reference (integers and booleans exactly, floats to ``RTOL`` relative);
on every seed the workload's invariants are checked.  Check functions return
a list of problems; an empty list means the unit passed.
"""

from __future__ import annotations

import math

RTOL = 1e-8


def _add(out: dict, key: str, value) -> None:
    if isinstance(value, list):
        for j, v in enumerate(value):
            _add(out, f"{key}[{j}]", v)
    else:
        out[key] = value


def _finite(values: dict) -> list[str]:
    return [
        f"{k} = {v!r} is not finite"
        for k, v in values.items()
        if isinstance(v, float) and not math.isfinite(v)
    ]


# --- normality: one run_normality report --------------------------------------

def normality_values(report: dict) -> dict:
    nb = report["normality"]
    out: dict = {
        "replications": report["config"]["replications"],
        "normality_n": report["normality_n"],
        "mean_within_4se": report["mean_within_4se"],
    }
    for key in (
        "n_samples",
        "dim",
        "mardia_skewness_stat",
        "mardia_skewness_pvalue",
        "mardia_kurtosis_stat",
        "mardia_kurtosis_pvalue",
        "sample_mean",
        "sample_cov",
    ):
        _add(out, key, nb[key])
    for proj in nb["ks_projections"]:
        out[f"ks[{proj['direction']}].d"] = proj["d"]
        out[f"ks[{proj['direction']}].pvalue"] = proj["pvalue"]
    return out


def normality_fits(values: dict) -> tuple[int, int]:
    """(fits attempted, fits failed); the report keeps only the successes."""
    return values["replications"], values["replications"] - values["n_samples"]


def normality_invariants(values: dict) -> list[str]:
    problems = _finite(values)
    if not 0 < values["n_samples"] <= values["replications"]:
        problems.append(f"n_samples {values['n_samples']} outside (0, R]")
    return problems


# --- consistency: one mc-consistency report -----------------------------------

def consistency_values(report: dict) -> dict:
    out: dict = {"replications": report["config"]["replications"]}
    for cell in report["cells"]:
        for key, value in cell.items():
            if key != "n":
                out[f"n={cell['n']}.{key}"] = value
    return out


def cells(values: dict) -> list[str]:
    return [k[: -len(".successes")] for k in values if k.endswith(".successes")]


def consistency_fits(values: dict) -> tuple[int, int]:
    failed = sum(
        values[f"{c}.nongeneric_failures"] + values[f"{c}.illconditioned_failures"]
        for c in cells(values)
    )
    return values["replications"] * len(cells(values)), failed


def consistency_invariants(values: dict) -> list[str]:
    problems = _finite(values)
    for cell in cells(values):
        total = (
            values[f"{cell}.successes"]
            + values[f"{cell}.nongeneric_failures"]
            + values[f"{cell}.illconditioned_failures"]
        )
        if total != values["replications"]:
            problems.append(f"{cell}: successes + failures = {total}, not R")
    return problems


# --- long-run: one run_long_run_check report ----------------------------------

def long_run_values(report: dict) -> dict:
    return {f"n={row['n']}.t_beth_t": row["t_beth_t"] for row in report["long_run"]}


def long_run_fits(values: dict) -> tuple[int, int]:
    return 0, 0  # the long-run check makes no TLS fit


def long_run_invariants(values: dict) -> list[str]:
    problems = _finite(values)
    problems += [f"trajectory {k} = {v!r} is not positive" for k, v in values.items() if not v > 0]
    return problems


# --- bootstrap: one bootstrap-ci report ---------------------------------------

def bootstrap_values(report: dict) -> dict:
    out: dict = {"n_boot": report["config"]["n_boot"]}
    for key in (
        "block_length",
        "n_boot_effective",
        "failure_count",
        "point_estimate",
        "lower",
        "upper",
    ):
        _add(out, key, report[key])
    return out


def bootstrap_fits(values: dict) -> tuple[int, int]:
    return values["n_boot"], values["failure_count"]


def bootstrap_invariants(values: dict) -> list[str]:
    problems = _finite(values)
    if values["n_boot_effective"] + values["failure_count"] != values["n_boot"]:
        problems.append("kept + failed resamples is not B")
    j = 0
    while f"lower[{j}]" in values:
        if not values[f"lower[{j}]"] <= values[f"upper[{j}]"]:
            problems.append(f"interval {j}: lower > upper")
        j += 1
    return problems


# --- shared -------------------------------------------------------------------

def compare(values: dict, reference: dict) -> list[str]:
    """Compare with reference values: exact for int/bool, RTOL for floats."""
    if set(values) != set(reference):
        return [f"result keys differ from the reference: {sorted(set(values) ^ set(reference))}"]
    problems = []
    for key, ref in reference.items():
        got = values[key]
        if isinstance(ref, float) and type(got) in (int, float):
            ok = got == ref or abs(got - ref) <= RTOL * max(abs(got), abs(ref))
        else:
            ok = type(got) is type(ref) and got == ref
        if not ok:
            problems.append(f"{key}: got {got!r}, reference {ref!r}")
    return problems


def same_bytes(threads_1: bytes, threads_2: bytes) -> list[str]:
    """The determinism check: a report must not depend on the thread count."""
    if threads_1 == threads_2:
        return []
    return ["report bytes differ between --threads 1 and --threads 2"]
