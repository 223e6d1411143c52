"""Generator-point samplers: exact determinantal sampling, the uniform
baseline, and k-means++ seeding, plus subset log-likelihoods used by the
diversity diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateData, ResampleExhausted, ShapeMismatch
from .kernel import KernelMatrix, SpectralDecomposition, as_data_matrix
from .rng import RngStream, as_generator

__all__ = [
    "GeneratorSet",
    "RngStream",
    "default_k_max",
    "sample_dpp",
    "sample_dpp_block",
    "dpp_log_likelihood",
    "sample_uniform",
    "kmeanspp_indices",
]


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered set of distinct observation indices used as Voronoi generators
    (or as k-means++ seeds).

    Pipeline runs always carry at least two indices; an empty set can only
    come out of ``sample_dpp`` with rejection disabled (diagnostics).
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ConfigError("generator indices must be distinct")
        if any(i < 0 for i in idx):
            raise ConfigError("generator indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)


def default_k_max(n: int) -> int:
    """Default cluster-count cap, 2 * ceil(sqrt(n / 2)) clipped to [2, n]."""
    return int(min(max(2, 2 * math.ceil(math.sqrt(n / 2.0))), n))


# Remaining chain-rule weight (size - picks in exact arithmetic) at or below
# which the kept subspace counts as exhausted.
_NULL_WEIGHT = 1e-10


def _pick_index(g: np.random.Generator, cdf: np.ndarray) -> int:
    # Inverse-CDF draw over cumulative weights, which need not be normalized
    # (scaling by the total absorbs rounding from repeated basis updates).
    u = g.random() * cdf[-1]
    return min(int(cdf.searchsorted(u, side="right")), cdf.size - 1)


def sample_dpp(
    spectral: SpectralDecomposition,
    rng,
    min_size: int = 2,
    max_attempts: int = 1000,
) -> GeneratorSet:
    """Draw one generator set from the point process defined by ``spectral``.

    This is ``sample_dpp_block`` with a block of one stream, which gives the
    law, the cost and the stream consumption.  The pipeline draws its runs
    in fixed blocks of ``pipeline.RUN_BLOCK`` instead: in exact arithmetic
    the picks are the same, only the rounding of the weights differs.
    """
    return sample_dpp_block(spectral, [rng], min_size, max_attempts)[0]


def sample_dpp_block(
    spectral: SpectralDecomposition,
    rngs,
    min_size: int = 2,
    max_attempts: int = 1000,
) -> list[GeneratorSet]:
    """Draw one generator set per stream in ``rngs``, all in lockstep.

    Phase 1 keeps eigenindex i independently with probability
    lambda_i / (lambda_i + 1), over all n eigenvalues; those past the r
    stored eigenvectors are exactly 0 and never kept, so every kept index
    is a column position of ``spectral.eigenvectors``.  Phase 2 draws from
    the projection process of each run's k kept eigenvectors V by the chain
    rule (Kulesza & Taskar 2012, Alg. 1, with the incremental Gram-Schmidt
    of Gautier et al. 2019): each pick takes row i with probability
    proportional to its weight, the squared norm of V[i] left after
    projecting out the rows already picked, and one Gram-Schmidt step then
    lowers every weight.  The set has k points, fewer only when the
    remaining weight becomes numerically null.

    The block works in E_U, the n x |U| eigenvector columns kept by any of
    its runs, each run masking it to its own columns.  A run's step-t
    direction is E_U b_t with b_t = (v_i - sum_s (v_i . b_s) b_s) / sqrt(w_i)
    in |U|-space, v_i the run's masked row i of E_U; in exact arithmetic
    that is V V[i] - sum_s c_s[i] c_s in the run's own basis.  So one
    product E_U [b_t ...] per step lowers the weights of every live run:
    a step costs O(n |U|) per live run there and O(t |U|) per run for b_t,
    and the block takes as many steps as its largest set.  A run leaves
    the arrays once its set is complete or its weight is null.  Its stream
    consumption never depends on the other runs, nor, in exact arithmetic,
    do its picks; the rounding of its weights does, through |U|, so a pick
    whose u falls within rounding of a CDF entry could move with the
    block.  The pipeline therefore draws its runs in fixed blocks
    (``pipeline.RUN_BLOCK``).

    Each stream is consumed as if drawn alone: one ``random(n)`` per
    phase-1 attempt, whatever the rank r, and one ``random()`` per pick, an
    inverse-CDF draw over all n rows.  Draws smaller than ``min_size`` are
    rejected and redrawn (a 0- or 1-generator run would produce a useless
    one-cell partition); ``min_size=0`` disables rejection for diagnostics
    and may return an empty set.  Phase 1 runs stream by stream, so a run
    that exhausts ``max_attempts`` raises ResampleExhausted for the block
    before any later stream is read.
    """
    streams = [as_generator(rng) for rng in rngs]
    lam = spectral.eigenvalues
    keep_probs = lam / (lam + 1.0)
    kept = []
    for g in streams:
        for _ in range(max(1, max_attempts)):
            idx = np.flatnonzero(g.random(lam.size) < keep_probs)
            if idx.size >= min_size:
                break
        else:
            raise ResampleExhausted(
                f"no eigenindex draw reached size {min_size} in {max_attempts} attempts"
            )
        kept.append(idx)

    chosen: list[list[int]] = [[] for _ in streams]
    live = [j for j, idx in enumerate(kept) if idx.size]  # runs still drawing
    if live:
        # the live runs' eigenindices, ascending and once each; a plain
        # np.unique would import numpy.ma on its hash path
        union = np.flatnonzero(np.bincount(np.concatenate([kept[j] for j in live])))
        E = spectral.eigenvectors[:, union]  # E_U, n x |U|
        Et = np.ascontiguousarray(E.T)
        masks = np.zeros((len(live), union.size))
        for row, j in enumerate(live):
            masks[row, np.searchsorted(union, kept[j])] = 1.0
        sizes = [kept[j].size for j in live]
        weights = masks @ (Et * Et)  # squared row norms of each run's V
        coef = np.empty((len(live), max(sizes), union.size))  # b_0, b_1, ... of each run
        for t in range(coef.shape[1]):
            cdf = np.cumsum(weights, axis=1)
            go, picks = [], []  # runs that go on to step t + 1, and their picks
            for row, j in enumerate(live):
                if cdf[row, -1] <= _NULL_WEIGHT:
                    continue
                i = _pick_index(streams[j], cdf[row])
                chosen[j].append(i)
                if t + 1 < sizes[row]:
                    go.append(row)
                    picks.append(i)
            if not go:
                break
            if len(go) < len(live):
                live = [live[row] for row in go]
                sizes = [sizes[row] for row in go]
                masks, weights, coef = masks[go], weights[go], coef[go]
            rows = np.arange(len(live))
            v = E[picks]
            prev = coef[:, :t]
            # b_s is 0 off its run's mask, so E_U[i] . b_s = v_i . b_s
            proj = prev @ v[:, :, None]
            v *= masks
            v -= (proj.transpose(0, 2, 1) @ prev)[:, 0]
            v /= np.sqrt(weights[rows, picks])[:, None]
            coef[:, t] = v
            drop = v @ Et  # each run's direction E_U b_t, squared below
            np.square(drop, out=drop)
            weights -= drop
            np.maximum(weights, 0.0, out=weights)
            weights[rows, picks] = 0.0
    return [GeneratorSet(tuple(c)) for c in chosen]


def dpp_log_likelihood(L, subset, log_det_norm: float) -> float:
    """Log probability mass of a generator subset under the point process.

    Returns ``log det(L_Y) - log det(L + I)`` for a ``KernelMatrix`` L (any
    other type raises ConfigError), of which only the k x k block of the
    subset is computed; ``log_det_norm`` = log det(L + I) comes once per
    kernel (``SpectralDecomposition.log_det_plus_identity``).  An index
    outside [0, n) raises ShapeMismatch and a repeated index ConfigError.
    The value is ``-inf`` when the Cholesky factorisation of the block
    fails; distinct points that coincide make the block singular, but
    rounding may leave it factorisable, with a large negative log
    determinant.
    """
    if not isinstance(L, KernelMatrix):
        raise ConfigError(f"dpp_log_likelihood takes a KernelMatrix, got {type(L).__name__}")
    idx = np.asarray(getattr(subset, "indices", subset), dtype=int)
    if idx.size == 0:
        return -log_det_norm
    # not np.sort: numpy's first integer sort faults in about 0.25 MB of its
    # SIMD sort code, which nothing else on the diversity path loads
    ordered = sorted(idx.tolist())
    if ordered[0] < 0 or ordered[-1] >= L.n:
        raise ShapeMismatch(f"subset index out of range [0, {L.n})")
    if any(a == b for a, b in zip(ordered, ordered[1:])):
        raise ConfigError("subset indices must be distinct")
    try:
        chol = np.linalg.cholesky(L.block(idx, idx))
    except np.linalg.LinAlgError:
        return float("-inf")
    logdet = 2.0 * float(np.log(np.diag(chol)).sum())
    return logdet - log_det_norm


def sample_uniform(n: int, k_max: int, rng) -> GeneratorSet:
    """Uniform baseline: k ~ U{2..k_max}, then a uniform k-subset of the n
    points; ``k_max`` must lie in [2, n].

    Under this scheme each particular size-k subset has probability
    1 / ((k_max - 1) * C(n, k)).
    """
    if not 2 <= k_max <= n:
        raise ConfigError(f"k_max={k_max} must lie in [2, n={n}]")
    g = as_generator(rng)
    k = int(g.integers(2, k_max + 1))
    idx = g.choice(n, size=k, replace=False)
    return GeneratorSet(tuple(int(i) for i in idx))


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
        i = _pick_index(g, np.cumsum(d2))
        chosen.append(i)
        d2 = np.minimum(d2, ((x - x[i]) ** 2).sum(axis=1))
    return tuple(chosen)
