"""Kernel-space scatter statistics and model selection among candidate
clusterings.

All statistics reduce to sums over kernel entries, so the implicit feature
map is never materialized: the squared distance between a point (or a
cluster mean) and another mean expands into block averages of the kernel
matrix.  Those averages come from the kernel's diagonal and its product
with the cluster indicator columns of every candidate at once, built in
one pass over blocks of kernel rows, so an implicit kernel is never
materialized either.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .consensus import BATCH_COLUMNS, Clustering
from .errors import ConfigError, DegenerateScatter, NoCandidates, SingletonClusterWarning
from .kernel import KernelMatrix

__all__ = [
    "ScatterReport",
    "CandidateScore",
    "SelectionResult",
    "scatter",
    "scatter_reports",
    "similarity_ratio",
    "kvi",
]

# Candidates whose smallest between-cluster squared distance falls below this
# are excluded from selection: the max/min ratio in the index explodes and the
# configuration is degenerate.
EPS_BETWEEN = 1e-12

# Kernel rows per block of the scatter pass: no more than 64 n entries of a
# KernelMatrix exist at a time.
_SCATTER_ROWS = 64


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


def _scatter_pass(mat, n: int, parts) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each clustering's within-scatter per cluster and block means, from
    one pass over the rows of ``mat`` with E = [E_1 | ... | E_m]."""
    every = np.arange(n)
    first = np.cumsum([0] + [k for _, k, _ in parts])  # column of each clustering's cluster 0
    E = np.zeros((n, first[-1]))
    for (labels, _, _), top in zip(parts, first):
        E[every, top + labels] = 1.0
    diag = np.empty(n)
    KE = np.empty_like(E)
    for top in range(0, n, _SCATTER_ROWS):
        if isinstance(mat, KernelMatrix):
            rows = mat.expanded_block(top, top + _SCATTER_ROWS)[0]
        else:
            rows = mat[top : top + _SCATTER_ROWS]
        diag[top : top + rows.shape[0]] = rows.diagonal(top)
        KE[top : top + rows.shape[0]] = rows @ E

    stats = []
    for (labels, k, sizes), top in zip(parts, first):
        cols = slice(top, top + k)
        # the average kernel value between clusters a and b
        means = (E[:, cols].T @ KE[:, cols]) / np.outer(sizes, sizes)
        inside = diag - 2.0 * KE[every, top + labels] / sizes[labels] + means.diagonal()[labels]
        dist = np.sqrt(np.clip(inside, 0.0, None))
        stats.append((np.bincount(labels, weights=dist, minlength=k) / sizes, means))
    return stats


def scatter_reports(L, clusterings) -> list[ScatterReport]:
    """Scatter statistics of every clustering in ``clusterings`` under
    kernel ``L``, from one pass over the rows of L per BATCH_COLUMNS
    indicator columns.

    ``L`` is a ``KernelMatrix`` or any symmetric Gram matrix, so tests can
    drive it with a plain dot-product kernel where every quantity has a
    closed coordinate form.  A ``KernelMatrix`` is never materialised: its
    rows are computed _SCATTER_ROWS at a time from the centred expansion
    (``KernelMatrix.expanded_block``), one matrix product per block with an
    exact unit diagonal, each entry within the block's rounding bound of
    the exact kernel.  Let E_c hold the 0/1 membership indicator of
    cluster a of clustering c in column a.  The pass keeps the diagonal of
    L and the n x (1 + sum of k_c) product KE = L [1 | E_1 | ... | E_m], the
    column of ones being the whole sample as one cluster, and every
    statistic is read from those two: the kernel block sums E_c^T KE_c,
    divided by the cluster sizes into block means M_c, and member i's
    squared distance to its cluster mean, L_ii - 2 KE_c[i, c_i] / |c_i| +
    M_c[c_i, c_i].  Sums are divided by counts afterwards, as a mean is,
    rather than weighted by 1/|a| in the products.  When 1 + sum of k_c
    exceeds ``consensus.BATCH_COLUMNS``, the clusterings are split in order
    into passes of at most that many columns, so E and KE take at most
    16 n BATCH_COLUMNS bytes; a clustering with more clusters than that
    has a pass of its own.  Each pass reads every row of L again.  The
    default settings rarely need a second pass: the candidates of the
    n = 1500 benchmark dataset take 51 and 61 columns at seeds 0 and 1.

    Warns (SingletonClusterWarning) for each clustering with a cluster of
    size one; its within-scattering is exactly zero.
    """
    dense = not isinstance(L, KernelMatrix)
    mat = np.asarray(L, dtype=float) if dense else L
    shape = mat.shape if dense else (L.n, L.n)
    parts = []
    for clustering in clusterings:
        labels = np.asarray(getattr(clustering, "labels", clustering), dtype=np.int64)
        k = int(getattr(clustering, "k", labels.max() + 1))
        if shape != (labels.size, labels.size):
            raise ConfigError(f"kernel is {shape}, labels have length {labels.size}")
        if k < 2:
            raise ConfigError("scatter statistics need at least two clusters")
        parts.append((labels, k, np.bincount(labels, minlength=k)))
    n = shape[0]
    parts.insert(0, (np.zeros(n, dtype=np.int64), 1, np.array([n])))  # the whole sample

    # passes of at most BATCH_COLUMNS indicator columns, or one clustering
    # wider than that; the first pass opens with the whole sample's column
    passes, width = [[]], 0
    for part in parts:
        if width + part[1] > BATCH_COLUMNS:
            passes.append([])
            width = 0
        passes[-1].append(part)
        width += part[1]
    stats = [stat for group in passes for stat in _scatter_pass(mat, n, group)]
    v_s = float(stats[0][0][0])

    reports = []
    for (_, k, sizes), (w_per_cluster, means) in zip(parts[1:], stats[1:]):
        if (sizes == 1).any():
            warnings.warn(
                f"{int((sizes == 1).sum())} singleton cluster(s); their within-scattering is 0",
                SingletonClusterWarning,
                stacklevel=2,
            )
        w_v = float(w_per_cluster.sum() / (k * v_s)) if v_s > 0 else 0.0
        d = means.diagonal()
        b_pairwise = np.clip(d[:, None] - 2.0 * means + d[None, :], 0.0, None)
        b_pairwise = 0.5 * (b_pairwise + b_pairwise.T)  # kill one-ulp matmul asymmetry
        np.fill_diagonal(b_pairwise, 0.0)
        iu = np.triu_indices(k, 1)
        pair_weights = np.outer(sizes, sizes)[iu].astype(float)
        b_v = float((pair_weights * np.sqrt(b_pairwise[iu])).sum() / pair_weights.sum())
        reports.append(ScatterReport(v_s, w_per_cluster, w_v, b_pairwise, b_v, sizes, n))
    return reports


def scatter(L, clustering) -> ScatterReport:
    """Compute all scatter statistics of ``clustering`` under kernel ``L``:
    ``scatter_reports`` of that one clustering."""
    return scatter_reports(L, [clustering])[0]


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

    reasons: list[str | None] = []
    b_tildes: list[float | None] = []
    for clus, rep in pairs:
        k = rep.b_pairwise.shape[0]
        if clus.k < 2:
            reasons.append("fewer than two clusters")
        elif rep.b_pairwise[~np.eye(k, dtype=bool)].min() <= EPS_BETWEEN:
            reasons.append("between-cluster distance is numerically zero")
        else:
            reasons.append(None)
        b_tildes.append(None if reasons[-1] else _b_tilde(rep))
    usable = [i for i, reason in enumerate(reasons) if reason is None]
    if not usable:
        raise NoCandidates("all candidates were excluded from index selection")

    alpha = b_tildes[min(usable, key=lambda i: _sort_key(pairs[i][0]))]
    scores: list[CandidateScore] = []
    for (clus, rep), reason, b_tilde in zip(pairs, reasons, b_tildes):
        try:
            sr = similarity_ratio(rep)
        except DegenerateScatter:
            sr = None
        value = None if reason else alpha * rep.w_v + b_tilde
        scores.append(
            CandidateScore(clus.threshold, clus.k, rep.w_v, b_tilde, sr, value, bool(reason), reason)
        )

    # the first of the usable candidates with the least (kvi, -k, threshold)
    best = min(usable, key=lambda i: (scores[i].kvi, *_sort_key(pairs[i][0])))
    return SelectionResult(pairs[best][0], tuple(scores), float(alpha))
