"""Default experiment ingredients: the two exemplar error paths and a tiled
design with an exactly known limit matrix.

The alpha path uses stationary Gaussian AR(1) columns (coefficient 0.5,
declared rate exponent 3, moment surplus 1); the phi path uses Gaussian
MA(2) columns with coefficients (1, 0.6, 0.3), which are 2-dependent.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .model import DesignSpec, repeating_block
from .montecarlo import ExperimentConfig
from .processes import ErrorMatrixSpec, ar1, ma

ALPHA_PATH = "alpha"
PHI_PATH = "phi"


def default_design(p: int) -> DesignSpec:
    """Identity rows plus an all-ones row, tiled; limit matrix (I + J)/(p+1)."""
    if p < 1:
        raise InvalidParams("p must be >= 1")
    block = np.vstack([np.eye(p), np.ones((1, p))])
    return repeating_block(block)


def default_errors(path: str, p: int, sigma2: float = 1.0) -> ErrorMatrixSpec:
    if path == ALPHA_PATH:
        col = ar1(0.5, delta=3.0, omega=1.0)
    elif path == PHI_PATH:
        col = ma((1.0, 0.6, 0.3), omega=1.0)
    else:
        raise InvalidParams(f"unknown exemplar path {path!r}")
    return ErrorMatrixSpec(column_specs=(col,) * (p + 1), sigma2=sigma2)


def default_config(
    path: str,
    beta,
    n_grid=(250, 1000, 4000),
    replications: int = 500,
    master_seed: int = 20240801,
    sigma2: float = 1.0,
) -> ExperimentConfig:
    p = len(beta)
    theorem = "AN-alpha" if path == ALPHA_PATH else "AN-phi"
    return ExperimentConfig(
        design=default_design(p),
        beta=beta,
        errors=default_errors(path, p, sigma2),
        n_grid=n_grid,
        replications=replications,
        master_seed=master_seed,
        theorem=theorem,
    )
