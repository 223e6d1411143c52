"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the code paths under test: components
via breadth-first search, small-cluster merging as a pure-Python loop over
member lists, candidate clusterings from both at every threshold, the
agreement index via raw pair counting with exact rationals, subset
probabilities via dense determinant enumeration, exact DPP draws by
re-orthonormalising the whole basis after every pick, scatter
statistics via explicit coordinates under a dot-product kernel and via
direct block sums under any dense kernel, and the
bandwidth as an exact rational mean over every pair.  scipy,
which the package no longer imports on its clustering path, is the
reference for distances and for the pivoted Cholesky factor.  Two rules
are kept here in the form the package used before it was simplified:
candidate deduplication by an ARI of exactly 1, and the index selection
of ``kvi_oracle``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy.linalg import lapack
from scipy.spatial.distance import cdist, pdist, squareform

from dppcluster.consensus import Clustering
from dppcluster.errors import DegenerateScatter, NoCandidates, ResampleExhausted
from dppcluster.metrics import ari
from dppcluster.rng import as_generator
from dppcluster.validation import (
    EPS_BETWEEN,
    CandidateScore,
    ScatterReport,
    SelectionResult,
    _b_tilde,
    _sort_key,
    similarity_ratio,
)


def bfs_components(adjacency: np.ndarray) -> np.ndarray:
    """Connected-component labels by breadth-first search."""
    n = adjacency.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    comp = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        queue = [start]
        labels[start] = comp
        while queue:
            i = queue.pop()
            for j in np.flatnonzero(adjacency[i]):
                if labels[j] < 0:
                    labels[j] = comp
                    queue.append(int(j))
        comp += 1
    return labels


def merge_small_oracle(component_labels, consensus, min_size: int):
    """The ``merge_small`` rule transcribed literally over member lists.

    Returns (labels, k, merged).  While more than one cluster remains and
    some cluster has fewer than ``min_size`` members: pick the smallest such
    cluster, ties to the lowest smallest member; scan its members i and the
    outside points j in ascending order for the largest C[i][j], ties to the
    first pair seen; move the cluster into the cluster of that j, which keeps
    its id.  Finally number the surviving ids 0..k-1 in ascending order.
    """
    c = np.asarray(consensus).tolist()
    members: dict[int, list[int]] = {}
    for i, cid in enumerate(np.asarray(component_labels).tolist()):
        members.setdefault(cid, []).append(i)
    owner = {i: cid for cid, idx in members.items() for i in idx}
    merged = False
    while len(members) > 1:
        small = [cid for cid, idx in members.items() if len(idx) < min_size]
        if not small:
            break
        target = min(small, key=lambda cid: (len(members[cid]), min(members[cid])))
        best = None
        for i in sorted(members[target]):
            for j in range(len(owner)):
                if owner[j] != target and (best is None or c[i][j] > best[0]):
                    best = (c[i][j], j)
        dest = owner[best[1]]
        for i in members.pop(target):
            owner[i] = dest
            members[dest].append(i)
        merged = True
    new_id = {cid: new for new, cid in enumerate(sorted(members))}
    labels = np.array([new_id[owner[i]] for i in range(len(owner))], dtype=np.int64)
    return labels, len(members), merged


def candidate_clusterings_oracle(consensus, thresholds, min_size: int):
    """Candidates rebuilt at each threshold from breadth-first components
    and ``merge_small_oracle``.

    Returns ([(threshold, k, merged, labels)], {threshold: k}): a threshold's
    result is kept when it has more than one cluster and no earlier kept
    result has the same clusters (compared by first-appearance numbering).
    """
    c = np.asarray(consensus)
    off_diagonal = ~np.eye(c.shape[0], dtype=bool)
    kept, k_by_threshold, seen = [], {}, set()
    for theta in thresholds:
        comp = bfs_components((c >= theta) & off_diagonal)
        labels, k, merged = merge_small_oracle(comp, c, min_size)
        k_by_threshold[theta] = k
        first: dict[int, int] = {}
        canonical = tuple(first.setdefault(v, len(first)) for v in labels.tolist())
        if k > 1 and canonical not in seen:
            seen.add(canonical)
            kept.append((theta, k, merged, labels))
    return kept, k_by_threshold


def dedup_by_ari_oracle(clusterings) -> list:
    """The clusterings with more than one cluster, each dropped when its
    ARI with an earlier kept one is exactly 1.0 (equal up to renaming)."""
    kept = []
    for clus in clusterings:
        if clus.k <= 1:
            continue
        if any(ari(clus.labels, prev.labels) == 1.0 for prev in kept):
            continue
        kept.append(clus)
    return kept


def ari_pair_oracle(labels_a, labels_b) -> float:
    """Adjusted Rand index from raw pair counts, in exact rational
    arithmetic until the final float conversion."""
    a = np.asarray(labels_a).ravel()
    b = np.asarray(labels_b).ravel()
    n = a.size
    n11 = n10 = n01 = 0
    for i in range(n):
        same_a = a[i + 1 :] == a[i]
        same_b = b[i + 1 :] == b[i]
        n11 += int(np.count_nonzero(same_a & same_b))
        n10 += int(np.count_nonzero(same_a & ~same_b))
        n01 += int(np.count_nonzero(~same_a & same_b))
    total = n * (n - 1) // 2
    sum_a = n11 + n10  # pairs together in a
    sum_b = n11 + n01  # pairs together in b
    expected = Fraction(sum_a * sum_b, total)
    max_index = Fraction(sum_a + sum_b, 2)
    if max_index == expected:
        return 1.0
    return float(Fraction(n11 - expected, max_index - expected))


def enumerate_dpp_probs(L: np.ndarray) -> dict[frozenset, float]:
    """Exact subset probabilities det(L_Y) / det(L + I) over the power set."""
    n = L.shape[0]
    norm = np.linalg.det(L + np.eye(n))
    probs = {}
    for r in range(n + 1):
        for sub in itertools.combinations(range(n), r):
            det = np.linalg.det(L[np.ix_(sub, sub)]) if sub else 1.0
            probs[frozenset(sub)] = det / norm
    return probs


def _oracle_pick_index(g: np.random.Generator, weights: np.ndarray) -> int:
    # Inverse-CDF draw; weights need not be normalized (the cumulative sum
    # renormalizes, absorbing rounding from repeated basis updates).
    cdf = np.cumsum(weights)
    u = g.random() * cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), weights.size - 1)


def _orthonormalize(V: np.ndarray) -> np.ndarray:
    # Modified Gram-Schmidt with renormalization; numerically null columns
    # are dropped rather than renormalized into noise.
    V = np.ascontiguousarray(V)
    kept: list[int] = []
    for c in range(V.shape[1]):
        v = V[:, c]
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-12:
            continue
        v /= nrm
        kept.append(c)
        rest = V[:, c + 1 :]
        if rest.size:
            rest -= np.outer(v, v @ rest)
    if len(kept) != V.shape[1]:
        return V[:, kept]
    return V


def projection_dpp_oracle(spectral, rng, min_size: int = 2, max_attempts: int = 1000):
    """Exact DPP draw as an ordered tuple of indices, consuming the stream
    exactly like ``sample_dpp``.

    Phase 1 keeps eigenindex i with probability lambda_i / (lambda_i + 1),
    redrawing below ``min_size``; phase 2 picks a row with probability
    proportional to its squared norm in the kept basis, eliminates that
    coordinate with the best-conditioned column, drops the column and
    re-orthonormalises the rest by modified Gram-Schmidt: O(n k^3) a draw.
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
    if size == 0:
        return ()

    V = spectral.eigenvectors[:, np.flatnonzero(mask)].copy()
    chosen: list[int] = []
    while V.shape[1] > 0:
        weights = np.einsum("ij,ij->i", V, V)
        i = _oracle_pick_index(g, weights)
        chosen.append(i)
        if V.shape[1] == 1:
            break
        # Project the basis onto the subspace orthogonal to coordinate i:
        # eliminate row i using the best-conditioned column, drop it, and
        # re-orthonormalize the remainder.
        j = int(np.argmax(np.abs(V[i, :])))
        pivot = V[:, j] / V[i, j]
        V = np.delete(V, j, axis=1)
        V -= np.outer(pivot, V[i, :])
        V = _orthonormalize(V)
    return tuple(chosen)


def linear_kernel_scatter(x: np.ndarray, labels: np.ndarray):
    """Scatter statistics computed directly from coordinates (valid for the
    dot-product kernel, whose feature map is the identity)."""
    labels = np.asarray(labels)
    k = int(labels.max()) + 1
    grand = x.mean(axis=0)
    v_s = float(np.linalg.norm(x - grand, axis=1).mean())
    w = np.zeros(k)
    centroids = np.zeros((k, x.shape[1]))
    sizes = np.zeros(k, dtype=int)
    for c in range(k):
        pts = x[labels == c]
        sizes[c] = len(pts)
        centroids[c] = pts.mean(axis=0)
        w[c] = float(np.linalg.norm(pts - centroids[c], axis=1).mean())
    b = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            if i != j:
                b[i, j] = float(((centroids[i] - centroids[j]) ** 2).sum())
    w_v = w.sum() / (k * v_s)
    num = den = 0.0
    for i in range(k):
        for j in range(i):
            num += sizes[i] * sizes[j] * np.sqrt(b[i, j])
            den += sizes[i] * sizes[j]
    return {"v_s": v_s, "w": w, "w_v": w_v, "b2": b, "b_v": num / den, "sizes": sizes}


def kernel_scatter(entries, labels) -> ScatterReport:
    """Scatter statistics of ``labels`` (ids 0..k-1, none empty) under any
    dense symmetric kernel, every block sum added up directly from its
    members' entries, with no matrix product: the block means M_ab = sum
    of K[i, j] over i in a, j in b, divided by |a| |b|; member i's squared
    distance to the mean of cluster a, K_ii - 2 mean_{j in a} K_ij + M_aa
    (the whole sample as one cluster for V_S); and the squared distance
    between the means of a and b, M_aa - 2 M_ab + M_bb, taken over a < b
    and mirrored."""
    K = np.asarray(entries, dtype=float)
    labels = np.asarray(labels)
    n, k = labels.size, int(labels.max()) + 1
    members = [np.flatnonzero(labels == a) for a in range(k)]
    sizes = np.array([idx.size for idx in members])
    # the rows and columns grouped by cluster, each block summed in place
    order, starts = np.concatenate(members), np.cumsum(sizes) - sizes
    grouped = K[np.ix_(order, order)]
    sums = np.add.reduceat(np.add.reduceat(grouped, starts, axis=0), starts, axis=1)
    means = sums / np.outer(sizes, sizes)

    def mean_distance(idx, block_mean):
        sq = K[idx, idx] - 2.0 * K[np.ix_(idx, idx)].mean(axis=1) + block_mean
        return float(np.sqrt(np.clip(sq, 0.0, None)).mean())

    v_s = mean_distance(np.arange(n), K.mean())
    w = np.array([mean_distance(idx, means[a, a]) for a, idx in enumerate(members)])
    b2 = np.zeros((k, k))
    num = den = 0.0
    for a, b in itertools.combinations(range(k), 2):
        b2[a, b] = b2[b, a] = max(0.0, means[a, a] - 2.0 * means[a, b] + means[b, b])
        num += sizes[a] * sizes[b] * np.sqrt(b2[a, b])
        den += sizes[a] * sizes[b]
    w_v = float(w.sum() / (k * v_s)) if v_s > 0 else 0.0
    return ScatterReport(v_s, w, w_v, b2, float(num / den), sizes, n)


def unique_relabel(raw) -> tuple[np.ndarray, int]:
    """Ids relabelled 0..k-1 in their order, and k, by ``np.unique``."""
    ids, inverse = np.unique(np.asarray(raw), return_inverse=True)
    return inverse, ids.size


def wcss(x: np.ndarray, labels: np.ndarray) -> float:
    """Within-cluster sum of squared distances to cluster means."""
    total = 0.0
    for c in np.unique(labels):
        pts = x[labels == c]
        total += float(((pts - pts.mean(axis=0)) ** 2).sum())
    return total


def lloyd_oracle(x: np.ndarray, centers: np.ndarray, max_iter: int = 100, tol: float = 1e-6):
    """Raw labels of Lloyd's iterations whose cluster sums add every row's
    features one row at a time, in increasing row order; distances, empty
    cluster removal and the stopping rule as in ``lloyd_kmeans``."""
    n, p = x.shape
    x_sq = np.einsum("ij,ij->i", x, x)[:, None]
    prev = None
    for _ in range(max_iter):
        d = x @ centers.T
        d *= -2.0
        d += x_sq
        d += np.einsum("ij,ij->i", centers, centers)
        raw = np.argmin(d, axis=1)
        keep = np.unique(raw)
        raw = np.searchsorted(keep, raw)
        centers = centers[keep]
        k = keep.size
        sums = [[0.0] * p for _ in range(k)]
        for i in range(n):
            row = sums[raw[i]]
            for j in range(p):
                row[j] += float(x[i, j])
        counts = np.bincount(raw, minlength=k)
        new_centers = np.array(sums) / counts[:, None]
        moved = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        unchanged = prev is not None and np.array_equal(prev, raw)
        centers, prev = new_centers, raw
        if unchanged or moved <= tol:
            break
    return prev


def scipy_sq_dists(x: np.ndarray) -> np.ndarray:
    """All pairwise squared Euclidean distances by scipy's ``pdist``."""
    return squareform(pdist(x, metric="sqeuclidean"))


def exact_mean_sq_dist(x: np.ndarray) -> Fraction:
    """The mean of the squared Euclidean distances over all pairs of rows,
    in exact rational arithmetic on the float entries."""
    rows = [[Fraction(v) for v in row] for row in np.asarray(x, dtype=float).tolist()]
    pairs = list(itertools.combinations(rows, 2))
    total = sum(sum((a - b) ** 2 for a, b in zip(u, v)) for u, v in pairs)
    return total / len(pairs)


def scipy_sq_dists_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between two row sets by scipy's ``cdist``."""
    return cdist(a, b, metric="sqeuclidean")


def lapack_pivoted_spectrum(mat: np.ndarray, trace_tol: float):
    """Rank, pivots and descending eigenvalues of F F^T for LAPACK's
    pivoted Cholesky factor F of ``mat`` (``dpstrf`` at its default
    tolerance), truncated at the first rank whose residual trace, tr(mat)
    less the squared norms of the columns kept, is at most ``trace_tol``;
    the eigenvalues are padded with zeros to n."""
    c, piv, full, info = lapack.dpstrf(np.array(mat, order="F"), lower=1)
    assert info >= 0
    factor = np.tril(c)[:, :full]
    residual = np.trace(mat) - np.concatenate([[0.0], np.cumsum((factor**2).sum(axis=0))])
    rank = int(np.flatnonzero(residual <= trace_tol)[0])
    lam = np.zeros(mat.shape[0])
    lam[:rank] = np.linalg.svd(factor[:, :rank], compute_uv=False) ** 2
    return rank, piv[:rank] - 1, lam


def reconstruction_residual(entries, spectral) -> float:
    """max |L - V diag(lambda) V^T| of a decomposition against the dense
    ``entries``, its products summed in extended precision (np.longdouble,
    64-bit mantissa on x86-64) so that their rounding stays far below that
    of the float64 decomposition."""
    vec = spectral.eigenvectors.astype(np.longdouble)
    lam = spectral.eigenvalues[: vec.shape[1]].astype(np.longdouble)
    diff = np.asarray(entries, dtype=np.longdouble) - (vec * lam) @ vec.T
    return float(np.abs(diff).max())


def kvi_oracle(candidates) -> SelectionResult:
    """``validation.kvi`` as it kept its candidates in four structures
    (usable, excluded, ranked and a position counter), the reference for
    the one-list bookkeeping: select the clustering minimizing the
    kernel-based validation index.

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
