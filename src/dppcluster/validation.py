"""Kernel-space scatter statistics and model selection among candidate
clusterings.

All statistics reduce to sums over kernel entries, so the implicit feature
map is never materialized: the squared distance between a point (or a
cluster mean) and another mean expands into block averages of the kernel
matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .consensus import Clustering
from .errors import ConfigError, DegenerateScatter, NoCandidates, SingletonClusterWarning

__all__ = [
    "ScatterReport",
    "CandidateScore",
    "SelectionResult",
    "scatter",
    "similarity_ratio",
    "kvi",
]

# Candidates whose smallest between-cluster squared distance falls below this
# are excluded from selection: the max/min ratio in the index explodes and the
# configuration is degenerate.
EPS_BETWEEN = 1e-12


@dataclass(frozen=True)
class ScatterReport:
    """Scatter statistics of one clustering in kernel feature space.

    ``b_pairwise`` holds squared distances between cluster means (zero
    diagonal); ``w_v`` and ``b_v`` are the aggregated within- and
    between-cluster values used by the selection indices.
    """

    v_s: float
    w_per_cluster: np.ndarray
    w_v: float
    b_pairwise: np.ndarray
    b_v: float
    sizes: np.ndarray
    n: int


def _within_scatter(block: np.ndarray) -> float:
    # mean over members of || phi(x) - cluster mean ||, via kernel sums
    inside = np.diag(block) - 2.0 * block.mean(axis=1) + block.mean()
    return float(np.sqrt(np.clip(inside, 0.0, None)).mean())


def scatter(L, clustering) -> ScatterReport:
    """Compute all scatter statistics of ``clustering`` under kernel ``L``.

    Accepts any symmetric Gram matrix, so tests can drive it with a plain
    dot-product kernel where every quantity has a closed coordinate form.
    Warns (SingletonClusterWarning) when a cluster of size one appears; its
    within-scattering is exactly zero.
    """
    m = np.asarray(L, dtype=float)
    labels = np.asarray(getattr(clustering, "labels", clustering), dtype=np.int64)
    k = int(getattr(clustering, "k", labels.max() + 1))
    n = labels.size
    if m.shape != (n, n):
        raise ConfigError(f"kernel is {m.shape}, labels have length {n}")
    if k < 2:
        raise ConfigError("scatter statistics need at least two clusters")

    sizes = np.bincount(labels, minlength=k)
    v_s = _within_scatter(m)

    members = [np.flatnonzero(labels == c) for c in range(k)]
    w_per_cluster = np.array([_within_scatter(m[np.ix_(j, j)]) for j in members])
    if (sizes == 1).any():
        warnings.warn(
            f"{int((sizes == 1).sum())} singleton cluster(s); their within-scattering is 0",
            SingletonClusterWarning,
            stacklevel=2,
        )
    w_v = float(w_per_cluster.sum() / (k * v_s)) if v_s > 0 else 0.0

    # Block means of the kernel: H weights each member by 1/cluster size, so
    # (H^T L H)[a, b] is the average kernel value between clusters a and b.
    H = np.zeros((n, k))
    H[np.arange(n), labels] = 1.0 / sizes[labels]
    block_means = H.T @ m @ H
    d = np.diag(block_means)
    b_pairwise = np.clip(d[:, None] - 2.0 * block_means + d[None, :], 0.0, None)
    b_pairwise = 0.5 * (b_pairwise + b_pairwise.T)  # kill one-ulp matmul asymmetry
    np.fill_diagonal(b_pairwise, 0.0)

    iu = np.triu_indices(k, 1)
    pair_weights = np.outer(sizes, sizes)[iu].astype(float)
    b_v = float((pair_weights * np.sqrt(b_pairwise[iu])).sum() / pair_weights.sum())

    return ScatterReport(v_s, w_per_cluster, w_v, b_pairwise, b_v, sizes, n)


def similarity_ratio(report: ScatterReport) -> float:
    """Similarity ratio 1 - [n/(n-1)] * W / (W + B); larger is better."""
    n = report.n
    denom = report.w_v + report.b_v
    if denom <= 0.0:
        raise DegenerateScatter("within plus between scattering is zero")
    return 1.0 - (n / (n - 1.0)) * (report.w_v / denom)


@dataclass(frozen=True)
class CandidateScore:
    """Per-candidate selection scores; excluded candidates carry a reason."""

    threshold: float | None
    k: int
    w_v: float
    b_tilde: float | None
    sr: float | None
    kvi: float | None
    excluded: bool
    reason: str | None


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of index-based selection among candidate clusterings."""

    chosen: Clustering
    scores: tuple[CandidateScore, ...]
    alpha: float


def _b_tilde(report: ScatterReport) -> float:
    # (B_max / B_min) * sum over ordered pairs of inverse squared distances
    k = report.b_pairwise.shape[0]
    off = report.b_pairwise[~np.eye(k, dtype=bool)]
    return float((off.max() / off.min()) * (1.0 / off).sum())


def _sort_key(clus: Clustering) -> tuple[int, float]:
    theta = clus.threshold if clus.threshold is not None else float("inf")
    return (-clus.k, theta)


def kvi(candidates) -> SelectionResult:
    """Select the clustering minimizing the kernel-based validation index.

    The index is alpha * W_V + B_tilde, where B_tilde aggregates inverse
    between-cluster distances scaled by their max/min ratio, and alpha is the
    B_tilde of the candidate with the largest cluster count (ties: lowest
    threshold).  Candidates with a vanishing between-cluster distance are
    excluded with a recorded reason.  Ties at the minimum go to the larger
    cluster count, then the lower threshold.  The similarity ratio is
    computed for every candidate as a report-only score.
    """
    pairs = [(clus, rep) for clus, rep in candidates]
    if not pairs:
        raise NoCandidates("no candidate clusterings to select from")

    usable: list[tuple[Clustering, ScatterReport, float]] = []
    excluded: dict[int, str] = {}
    for i, (clus, rep) in enumerate(pairs):
        if clus.k < 2:
            excluded[i] = "fewer than two clusters"
            continue
        k = rep.b_pairwise.shape[0]
        min_off = rep.b_pairwise[~np.eye(k, dtype=bool)].min()
        if min_off <= EPS_BETWEEN:
            excluded[i] = "between-cluster distance is numerically zero"
            continue
        usable.append((clus, rep, _b_tilde(rep)))
    if not usable:
        raise NoCandidates("all candidates were excluded from index selection")

    alpha = min(usable, key=lambda t: _sort_key(t[0]))[2]

    scores: list[CandidateScore] = []
    ranked: list[tuple[float, int, float, int]] = []
    pos = 0
    for i, (clus, rep) in enumerate(pairs):
        try:
            sr = similarity_ratio(rep)
        except DegenerateScatter:
            sr = None
        if i in excluded:
            scores.append(
                CandidateScore(clus.threshold, clus.k, rep.w_v, None, sr, None, True, excluded[i])
            )
            continue
        b_tilde = usable[pos][2]
        pos += 1
        value = alpha * rep.w_v + b_tilde
        theta = clus.threshold if clus.threshold is not None else float("inf")
        ranked.append((value, -clus.k, theta, i))
        scores.append(
            CandidateScore(clus.threshold, clus.k, rep.w_v, b_tilde, sr, value, False, None)
        )

    best_idx = min(ranked)[3]
    return SelectionResult(pairs[best_idx][0], tuple(scores), float(alpha))
