"""Validators for the dense inputs of the package.

Matrices and vectors are plain ``numpy`` float arrays; ``as_matrix`` and
``as_vector`` are their public constructors and reject non-finite entries.
``as_integer`` reads a count (a sample size, a replication or resample
count, a block length, a seed) and refuses a fraction, a string and a bool.
The numerical kernels call ``numpy`` (LAPACK) directly.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams


def as_matrix(a) -> np.ndarray:
    """Validate and return ``a`` as a 2-d float array with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidParams(f"expected a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParams("matrix entries must be finite")
    return m


def as_vector(v) -> np.ndarray:
    """Validate and return ``v`` as a 1-d float array with finite entries."""
    w = np.asarray(v, dtype=float)
    if w.ndim != 1 or w.shape[0] < 1:
        raise InvalidParams(f"expected a 1-d vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise InvalidParams("vector entries must be finite")
    return w


def as_integer(value, name: str) -> int:
    """``int(value)``; InvalidParams for a string, a bool or a float that is not a whole number.

    Python and numpy integers, and whole-number floats, are accepted.
    """
    if isinstance(value, (str, bool, np.bool_)) or (
        isinstance(value, (float, np.floating)) and not float(value).is_integer()
    ):
        raise InvalidParams(f"{name} must be a whole number, got {value!r}")
    return int(value)
