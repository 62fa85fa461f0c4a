"""Validators for the inputs of the package.

Matrices and vectors are plain ``numpy`` float arrays; ``as_matrix`` and
``as_vector`` are their public constructors and reject entries that are
not finite integers or floats.  ``as_number`` reads a float and
``as_integer`` a count (a sample size, a replication or resample count, a
block length, a seed); both refuse a string and a bool.  ``from_keys``
builds a spec dataclass from a config object whose keys are its fields.
The numerical kernels call ``numpy`` (LAPACK) directly.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

import numpy as np

from .errors import InvalidParams

_REAL = (int, float, np.integer, np.floating)
# The most float64 values one array can address: a larger sample size or
# replication count is refused before anything is allocated.
MAX_LENGTH = np.iinfo(np.intp).max // 8


def _float_array(a, what: str) -> np.ndarray:
    try:
        m = np.asarray(a)
    except ValueError as exc:  # a ragged nest of lists
        raise InvalidParams(f"malformed {what}: {exc}") from None
    # numpy turns a bool among numbers into a number: look at the entries of a list.
    mixed = isinstance(a, list) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(a, dtype=object).flat
    )
    if mixed or m.dtype.kind not in "iuf" or not np.all(np.isfinite(m)):
        raise InvalidParams(f"{what} entries must be finite numbers")
    return m.astype(float, copy=False)


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d float array with finite entries."""
    m = _float_array(a, "matrix")
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidParams(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a 1-d float array with finite entries."""
    w = _float_array(v, "vector")
    if w.ndim != 1 or w.shape[0] < 1:
        raise InvalidParams(f"expected a 1-d vector, got shape {w.shape}")
    return w


def as_number(value, name: str) -> float:
    """``float(value)`` of a Python or numpy integer or float; InvalidParams for anything else."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, _REAL):
        raise InvalidParams(f"{name} must be a number, got {value!r}")
    return float(value)


def as_integer(value, name: str) -> int:
    """``int(value)``; InvalidParams for anything but an integer or a whole-number float.

    Python and numpy integers, and whole-number floats, are accepted.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, _REAL) or (
        isinstance(value, (float, np.floating)) and not float(value).is_integer()
    ):
        raise InvalidParams(f"{name} must be a whole number, got {value!r}")
    return int(value)


def as_tuple(values, read, name: str) -> tuple:
    """``read`` of each entry of a list, tuple or 1-d array; InvalidParams for other ``values``."""
    if not (isinstance(values, (list, tuple)) or np.ndim(values) == 1):
        raise InvalidParams(f"{name} must be a list, got {values!r}")
    return tuple(read(v, f"every entry of {name}") for v in values)


def config_object(d, what: str) -> dict:
    """A copy of the config object ``d``; InvalidParams if it is not a dict."""
    if not isinstance(d, dict):
        raise InvalidParams(f"{what} must be a JSON object, got {d!r}")
    return dict(d)


def from_keys(cls, d, what: str, **given):
    """``cls(**d, **given)`` for a dataclass ``cls`` and a config object ``d``.

    The keys of ``d`` are the fields of ``cls`` that ``given`` does not set:
    InvalidParams names any other key, and a missing field without a default.
    """
    d = config_object(d, what)
    keyed = [f for f in fields(cls) if f.name not in given]
    check_keys(d, [f.name for f in keyed], what)
    for f in keyed:
        if f.default is MISSING and f.name not in d:
            raise InvalidParams(f"{what} is missing required key {f.name!r}")
    return cls(**d, **given)


def check_keys(d: dict, known, what: str) -> None:
    """InvalidParams naming the first key of ``d`` that is not in ``known``."""
    for key in d:
        if key not in known:
            raise InvalidParams(f"unknown key {key!r} in {what}")
