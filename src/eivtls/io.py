"""Bit-exact file formats: dataset CSV, report JSON, and companion tables.

Floats are written with Python's shortest round-trip repr, so a write / read
cycle reproduces the in-memory values bit for bit.  All writes go through a
temp file in the target directory followed by an atomic rename, and the file
gets the mode a newly created file gets under the process umask.  Every input
is read as UTF-8 text; a config must be one JSON object, and a dataset is
the header ``x1,...,xp,y`` over rows of p + 1 numbers, which
``numpy.loadtxt`` parses once blank lines are dropped.  Any other input is
``InvalidParams``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import InvalidParams
from .linalg import as_matrix, as_vector


def _atomic_write_text(path: str, text: str) -> None:
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f"tmp{os.urandom(8).hex()}.tmp")
    # A new file (O_EXCL) of mode 0666, which the kernel masks with the umask as open() does.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidParams(f"{path} is not UTF-8 text: {exc}") from None


def write_dataset_csv(path: str, x, y) -> None:
    """Write the dataset as ``x1,...,xp,y`` rows, LF-terminated, UTF-8."""
    x = as_matrix(x)
    y = as_vector(y)
    if y.shape[0] != x.shape[0]:
        raise InvalidParams("x and y row counts differ")
    header = [f"x{j + 1}" for j in range(x.shape[1])] + ["y"]
    write_table_csv(path, header, np.column_stack([x, y]).tolist())


def read_dataset_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a dataset written by ``write_dataset_csv``."""
    header, *lines = _read_text(path).split("\n")
    header = header.strip()
    cols = header.split(",")
    if len(cols) < 2 or cols != [f"x{j + 1}" for j in range(len(cols) - 1)] + ["y"]:
        raise InvalidParams(f"unexpected dataset header {header!r} in {path}")
    rows = [line for line in lines if line.strip()]
    if not rows:
        raise InvalidParams(f"{path} contains no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise InvalidParams(f"malformed data row in {path}: {exc}") from None
    if data.shape[1] != len(cols):
        raise InvalidParams(f"{path}: {data.shape[1]} fields per row under {len(cols)} columns")
    return data[:, :-1], data[:, -1]


def write_report_json(path: str, report: dict) -> None:
    _atomic_write_text(path, json.dumps(report, indent=2, sort_keys=False) + "\n")


def read_json(path: str) -> dict:
    """The JSON object in ``path``."""
    try:
        d = json.loads(_read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidParams(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(d, dict):
        raise InvalidParams(f"malformed config {path}: the top level must be a JSON object")
    return d


def write_table_csv(path: str, header: list[str], rows: list[list]) -> None:
    """CSV table, one record per row, each value printed by ``repr``.

    Rows hold Python scalars (``tolist()``): numpy 2 prints ``np.float64(...)``."""
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    _atomic_write_text(path, "\n".join(lines) + "\n")
