"""Column-wise preprocessing ahead of kernel construction."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateData
from .kernel import as_data_matrix

__all__ = ["standardize", "boxcox_transform", "apply_preprocessing", "PREPROCESSORS"]

# exponent grid -2..2 in steps of 0.1; includes exactly 0.0 (log transform)
_LAMBDA_GRID = np.round(np.linspace(-2.0, 2.0, 41), 10)

# columns with non-positive values are shifted so their minimum becomes 1 + eps
_SHIFT_EPS = 1e-6


def standardize(data) -> np.ndarray:
    """Center each column and scale to unit variance; constant columns are
    centered only."""
    x = as_data_matrix(data)
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0.0] = 1.0
    return (x - mu) / sd


def boxcox_transform(data) -> np.ndarray:
    """Per-column power transform with the exponent chosen on a fixed grid.

    Each column is shifted positive if needed (by 1 - min + eps), then the
    exponent in [-2, 2] (step 0.1) maximizing the profile log-likelihood is
    applied: (x^lam - 1) / lam, or log x when lam = 0.  Constant columns are
    rejected.
    """
    # deferred: scipy adds ~0.4 s and scipy.stats ~0.75 s to import
    from scipy.special import boxcox
    from scipy.stats import boxcox_llf

    x = as_data_matrix(data)
    out = np.empty_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        if col.max() == col.min():
            raise DegenerateData(f"column {j} is constant; power transform undefined")
        if col.min() <= 0.0:
            col = col + (1.0 - col.min() + _SHIFT_EPS)
        llf = np.array([boxcox_llf(lam, col) for lam in _LAMBDA_GRID])
        lam = float(_LAMBDA_GRID[int(np.argmax(llf))])
        out[:, j] = boxcox(col, lam)
    return out


PREPROCESSORS = {
    "none": lambda x: as_data_matrix(x),
    "standardize": standardize,
    "boxcox": boxcox_transform,
}


def apply_preprocessing(data, mode: str) -> np.ndarray:
    try:
        fn = PREPROCESSORS[mode]
    except KeyError:
        raise ConfigError(
            f"unknown preprocessing {mode!r}; expected one of {sorted(PREPROCESSORS)}"
        ) from None
    return fn(data)
