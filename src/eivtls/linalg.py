"""Validators for the inputs of the package.

Matrices and vectors are plain ``numpy`` float arrays; ``as_matrix`` and
``as_vector`` are their public constructors and reject entries that are
not finite integers or floats.  ``as_number`` reads a float and
``as_integer`` a whole number; both refuse a string and a bool.
``as_integer`` with a minimum is the one reader of every size and count
(a sample size, a replication or resample count, a block length, a
bandwidth): it refuses a value below the minimum or above ``MAX_LENGTH``,
which no other module names; ``icbrt``, the floor cube root of such a
size, rests on that bound.  A spec dataclass is read from a config
object whose keys are its fields by ``from_keys`` (a nested one by
``as_spec``), written by ``to_keys`` and checked by ``check_kind``.  The
numerical kernels call ``numpy`` (LAPACK) directly.
"""

from __future__ import annotations

from dataclasses import MISSING, fields

import numpy as np

from .errors import InvalidParams

_REAL = (int, float, np.integer, np.floating)
# The most float64 values one array can address: a larger sample size or
# replication count is refused before anything is allocated.
MAX_LENGTH = np.iinfo(np.intp).max // 8


def icbrt(n: int) -> int:
    """Exact integer floor cube root (float powers round 1000**(1/3) down)."""
    # Up to MAX_LENGTH the float root errs by under 1e-9: round is never below the floor.
    k = int(round(n ** (1.0 / 3.0)))
    while k**3 > n:
        k -= 1
    return max(k, 0)


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


def as_matrix(a, vector_as_column: bool = False) -> np.ndarray:
    """Validate and return ``a`` as a 2-d float array with finite entries.

    With ``vector_as_column``, a 1-d ``a`` is read as a one-column matrix.
    """
    m = _float_array(a, "matrix")
    if vector_as_column and m.ndim == 1:
        m = m[:, None]
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


def as_integer(value, name: str, least: int | None = None) -> int:
    """``int(value)``; InvalidParams for anything but an integer or a whole-number float.

    Python and numpy integers, and whole-number floats, are accepted.  Given
    ``least``, the value is a size or count and must lie from ``least`` to
    ``MAX_LENGTH``.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, _REAL) or (
        isinstance(value, (float, np.floating)) and not float(value).is_integer()
    ):
        raise InvalidParams(f"{name} must be a whole number, got {value!r}")
    n = int(value)
    if least is not None and not least <= n <= MAX_LENGTH:
        raise InvalidParams(f"{name} must be at least {least} and at most {MAX_LENGTH}, got {value}")
    return n


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
    names = [f.name for f in keyed]
    for key in d:
        if key not in names:
            raise InvalidParams(f"unknown key {key!r} in {what}")
    for f in keyed:
        if f.default is MISSING and f.name not in d:
            raise InvalidParams(f"{what} is missing required key {f.name!r}")
    return cls(**d, **given)


def to_keys(obj) -> dict:
    """The inverse of ``from_keys``: the fields of dataclass ``obj`` that are not None, in order.

    An array or a tuple is written as a list, and a nested spec by its ``to_dict``.
    """
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif isinstance(value, tuple):
            value = list(value)
        elif hasattr(value, "to_dict"):
            value = value.to_dict()
        if value is not None:
            out[f.name] = value
    return out


def as_spec(cls, value):
    """``value`` if it is a ``cls`` already, else ``cls.from_dict(value)`` of its config object."""
    return value if isinstance(value, cls) else cls.from_dict(value)


def check_kind(spec, reads: dict, what: str) -> None:
    """InvalidParams unless ``reads`` lists ``spec.kind`` and, under it, every other field set."""
    kind = spec.kind
    if not isinstance(kind, str) or kind not in reads:
        raise InvalidParams(f"unknown {what} kind {kind!r}")
    for f in fields(spec):
        if f.name != "kind" and f.name not in reads[kind] and getattr(spec, f.name) is not None:
            raise InvalidParams(f"kind {kind!r} takes no {f.name}")
