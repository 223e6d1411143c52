"""External agreement measures between two labelings."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DegenerateData, ShapeMismatch

__all__ = ["ari", "rn"]


def _pairs(c) -> int:
    c = int(c)
    return c * (c - 1) // 2


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index, exactly 1.0 iff the labelings are identical up
    to renaming.

    All pair counts use Python integers before the single final division, so
    the value is exact for any n.  Returns 1.0 in the degenerate case where
    the chance-adjusted denominator vanishes (e.g. both labelings are a
    single cluster, or both are all singletons).  Each labeling is one
    label per observation: a labeling that is not 1-d, or of another
    length, raises ShapeMismatch.
    """
    la, lb = np.asarray(labels_a), np.asarray(labels_b)
    if la.ndim != 1 or la.shape != lb.shape:
        raise ShapeMismatch(
            f"labels must be 1-d of one length, got shapes {la.shape} and {lb.shape}"
        )
    if la.size < 2:
        raise DegenerateData("need at least two observations")
    _, ia = np.unique(la, return_inverse=True)
    _, ib = np.unique(lb, return_inverse=True)
    ka, kb = int(ia.max()) + 1, int(ib.max()) + 1
    # the contingency table of the two labelings
    counts = np.bincount(ia * kb + ib, minlength=ka * kb).reshape(ka, kb)
    sum_ij = sum(_pairs(c) for c in counts.flat)
    a = sum(_pairs(c) for c in counts.sum(axis=1))
    b = sum(_pairs(c) for c in counts.sum(axis=0))
    total = _pairs(la.size)
    num = 2 * (total * sum_ij - a * b)
    den = total * (a + b) - 2 * a * b
    if den == 0:
        return 1.0
    return num / den


def rn(g_hat: int, g_true: int) -> float:
    """Relative square-root difference between estimated and true cluster
    counts; positive iff g_hat > g_true.  Reporting uses the absolute value.
    """
    if g_hat < 1 or g_true < 1:
        raise ConfigError("cluster counts must be at least 1")
    return (math.sqrt(g_hat) - math.sqrt(g_true)) / math.sqrt(g_true)
