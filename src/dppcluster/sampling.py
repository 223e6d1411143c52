"""Generator-point samplers: exact determinantal sampling, the uniform
baseline, and k-means++ seeding, plus subset log-likelihoods used by the
diversity diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateData, ResampleExhausted
from .kernel import KernelMatrix, SpectralDecomposition, as_data_matrix
from .rng import RngStream, as_generator

__all__ = [
    "GeneratorSet",
    "BaselineConfig",
    "RngStream",
    "default_k_max",
    "sample_dpp",
    "dpp_log_likelihood",
    "sample_uniform",
    "kmeanspp_indices",
    "kmeanspp_init",
]


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered set of distinct observation indices used as Voronoi generators.

    Pipeline runs always carry at least two indices; an empty set can only
    come out of ``sample_dpp`` with rejection disabled (diagnostics).
    """

    indices: tuple[int, ...]
    method: str

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ConfigError("generator indices must be distinct")
        if any(i < 0 for i in idx):
            raise ConfigError("generator indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class BaselineConfig:
    """Upper bound for the uniform cluster-count draw."""

    k_max: int

    def __post_init__(self):
        if int(self.k_max) < 2:
            raise ConfigError(f"k_max must be at least 2, got {self.k_max}")
        object.__setattr__(self, "k_max", int(self.k_max))


def default_k_max(n: int) -> int:
    """Default cluster-count cap, 2 * ceil(sqrt(n / 2)) clipped to [2, n]."""
    return int(min(max(2, 2 * math.ceil(math.sqrt(n / 2.0))), n))


# Remaining chain-rule weight (size - picks in exact arithmetic) at or below
# which the kept subspace counts as exhausted.
_NULL_WEIGHT = 1e-10


def _pick_index(g: np.random.Generator, weights: np.ndarray) -> int:
    # Inverse-CDF draw; weights need not be normalized (the cumulative sum
    # renormalizes, absorbing rounding from repeated basis updates).
    cdf = np.cumsum(weights)
    u = g.random() * cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), weights.size - 1)


def sample_dpp(
    spectral: SpectralDecomposition,
    rng,
    min_size: int = 2,
    max_attempts: int = 1000,
) -> GeneratorSet:
    """Draw one generator set from the point process defined by ``spectral``.

    Phase 1 keeps eigenindex i independently with probability
    lambda_i / (lambda_i + 1), over all n eigenvalues; those past the r
    stored eigenvectors are exactly 0 and never kept, so every kept index
    is a column position of ``spectral.eigenvectors``.  Phase 2 draws from
    the projection process of the k kept eigenvectors V by the chain rule
    (Kulesza & Taskar 2012, Alg. 1, with the incremental Gram-Schmidt of
    Gautier et al. 2019): each pick takes row i with probability
    proportional to its weight, the squared norm of V[i] left after
    projecting out the rows already picked, and one Gram-Schmidt step then
    lowers every weight.  That costs O(n k) per pick and O(n k^2) per
    draw; the set has k points, fewer only when the remaining weight becomes
    numerically null.  The stream is consumed as one ``random(n)`` per
    phase-1 attempt, whatever the rank r, and one ``random()`` per pick, an
    inverse-CDF draw over all n rows.
    Draws smaller than ``min_size`` are rejected and redrawn (a 0- or
    1-generator run would produce a useless one-cell partition);
    ``min_size=0`` disables rejection for diagnostics and may return an
    empty set.
    """
    g = as_generator(rng)
    lam = spectral.eigenvalues
    keep_probs = lam / (lam + 1.0)
    for _ in range(max(1, max_attempts)):
        mask = g.random(lam.size) < keep_probs
        size = int(mask.sum())
        if size >= min_size:
            break
    else:
        raise ResampleExhausted(
            f"no eigenindex draw reached size {min_size} in {max_attempts} attempts"
        )

    V = spectral.eigenvectors[:, np.flatnonzero(mask)]
    weights = np.einsum("ij,ij->i", V, V)
    B = np.empty((size, V.shape[0]))  # row t: component along step t's direction
    chosen: list[int] = []
    for t in range(size):
        if weights.sum() <= _NULL_WEIGHT:
            break
        i = _pick_index(g, weights)
        chosen.append(i)
        if t == size - 1:
            break
        c = (V @ V[i] - B[:t, i] @ B[:t]) / math.sqrt(weights[i])
        B[t] = c
        weights -= c * c
        np.clip(weights, 0.0, None, out=weights)
        weights[chosen] = 0.0
    return GeneratorSet(tuple(chosen), "dpp")


def dpp_log_likelihood(L, subset, log_det_norm: float | None = None) -> float:
    """Log probability mass of a generator subset under the point process.

    Returns ``log det(L_Y) - log det(L + I)``; the normalizer can be passed
    in precomputed (one ``sum(log1p(eigenvalues))`` per kernel) and is
    otherwise derived from the eigenvalues of ``L``.  Of a ``KernelMatrix``
    only the k x k block of the subset is computed.  A singular principal
    minor (duplicate or linearly dependent rows) reports ``-inf``.
    """
    mat = L if isinstance(L, KernelMatrix) else np.asarray(L, dtype=float)
    if log_det_norm is None:
        lam = np.clip(np.linalg.eigvalsh(np.asarray(mat)), 0.0, None)
        log_det_norm = float(np.log1p(lam).sum())
    idx = np.asarray(getattr(subset, "indices", subset), dtype=int)
    if idx.size == 0:
        return -log_det_norm
    sub = mat[np.ix_(idx, idx)]
    try:
        chol = np.linalg.cholesky(sub)
    except np.linalg.LinAlgError:
        return float("-inf")
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    return logdet - log_det_norm


def sample_uniform(n: int, cfg: BaselineConfig, rng) -> GeneratorSet:
    """Uniform baseline: k ~ U{2..k_max}, then a uniform k-subset of points.

    Under this scheme each particular size-k subset has probability
    1 / ((k_max - 1) * C(n, k)).
    """
    g = as_generator(rng)
    if cfg.k_max > n:
        raise ConfigError(f"k_max={cfg.k_max} exceeds the number of observations n={n}")
    k = int(g.integers(2, cfg.k_max + 1))
    idx = g.choice(n, size=k, replace=False)
    return GeneratorSet(tuple(int(i) for i in idx), "uniform")


def kmeanspp_indices(data, k: int, rng) -> tuple[int, ...]:
    """k-means++ seeding, returned as data-point indices.

    The first index is uniform; each following one is drawn with probability
    proportional to the squared distance to the nearest already-chosen point,
    which makes repeats impossible.  Raises DegenerateData when fewer than k
    distinct points exist.
    """
    x = as_data_matrix(data)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ConfigError(f"k must be in [1, {n}], got {k}")
    g = as_generator(rng)
    first = int(g.integers(n))
    chosen = [first]
    d2 = ((x - x[first]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = float(d2.sum())
        if total <= 0.0:
            raise DegenerateData(f"fewer than {k} distinct points in the data")
        i = _pick_index(g, d2)
        chosen.append(i)
        d2 = np.minimum(d2, ((x - x[i]) ** 2).sum(axis=1))
    return tuple(chosen)


def kmeanspp_init(data, k: int, rng) -> np.ndarray:
    """k-means++ seeding, returned as a (k, p) array of centers."""
    x = as_data_matrix(data)
    return x[list(kmeanspp_indices(x, k, rng))].copy()
