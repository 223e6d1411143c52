"""Partitions of a dataset: Voronoi assignment and Lloyd's iterations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch
from .kernel import as_data_matrix, sq_dists_between

__all__ = ["Partition", "compact_labels", "voronoi_assign", "lloyd_kmeans"]


@dataclass(frozen=True)
class Partition:
    """Cluster labels 0..k-1 with every id nonempty, in a read-only int64
    copy of the caller's labels."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        lab = np.array(self.labels, dtype=np.int64)
        if lab.ndim != 1 or lab.size == 0:
            raise ShapeMismatch("labels must be a nonempty 1-d array")
        in_range = lab.min() >= 0 and lab.max() < self.k  # bincount rejects negatives
        if not in_range or (np.bincount(lab, minlength=self.k) == 0).any():
            raise ConfigError("labels must use contiguous ids 0..k-1 with no empty cluster")
        object.__setattr__(self, "labels", lab)
        lab.setflags(write=False)

    @property
    def n(self) -> int:
        return self.labels.size


def compact_labels(raw) -> tuple[np.ndarray, int]:
    """Relabel to contiguous ids 0..k-1, preserving the order of the
    original ids."""
    uniq, labels = np.unique(np.asarray(raw), return_inverse=True)
    return labels.astype(np.int64), int(uniq.size)


def voronoi_assign(data, gens, sq_dists: np.ndarray | None = None) -> Partition:
    """Assign every observation to its nearest generator.

    Ties go to the earliest generator in ``gens.indices``; cells emptied by
    ties are removed and labels compacted.  ``sq_dists`` may carry the shared
    pairwise squared-distance matrix to avoid recomputing distances per run;
    it must be exactly symmetric, as ``pairwise_sq_dists`` guarantees,
    because the generators' rows are read in place of their columns.
    Without it, the generators' distances are computed in the same
    feature order and are bit-equal to those rows.  An index outside
    [0, n) raises ShapeMismatch.
    """
    idx = np.asarray(getattr(gens, "indices", gens), dtype=int)
    if idx.size == 0:
        raise ConfigError("generator set is empty")
    rows = np.asarray(sq_dists) if sq_dists is not None else as_data_matrix(data)
    if idx.min() < 0 or idx.max() >= rows.shape[0]:
        raise ShapeMismatch(f"generator index out of range [0, {rows.shape[0]})")
    # a distance row equals its column by symmetry, and reads contiguously
    d = rows[idx] if sq_dists is not None else sq_dists_between(rows[idx], rows)
    raw = np.argmin(d, axis=0)  # first occurrence wins ties
    labels, k = compact_labels(raw)
    return Partition(labels, k)


def lloyd_kmeans(data, init_centers, max_iter: int = 100, tol: float = 1e-6) -> Partition:
    """Lloyd's iterations from explicit initial centers.

    Alternates nearest-center assignment and mean updates until the largest
    center movement is at most ``tol`` or the assignment stops changing
    (guaranteeing termination even for tol=0); empty clusters are dropped as
    they appear.  The within-cluster sum of squares never increases.
    Squared distances to the centers are ||x||^2 - 2 x.c + ||c||^2, one
    matrix product per iteration.
    """
    x = as_data_matrix(data)
    n, p = x.shape
    centers = np.atleast_2d(np.asarray(init_centers, dtype=float))
    if centers.ndim != 2 or centers.shape[1] != p:
        raise ShapeMismatch(f"centers must be (k, {p}), got {centers.shape}")
    if not 1 <= centers.shape[0] <= n:
        raise ConfigError(f"number of centers must be in [1, {n}]")
    if max_iter < 1:
        raise ConfigError("max_iter must be at least 1")

    x_sq = np.einsum("ij,ij->i", x, x)[:, None]
    x_flat, features = x.ravel(), np.arange(p)  # entry (i, j) at i p + j
    prev = None
    for _ in range(max_iter):
        d = x @ centers.T
        d *= -2.0
        d += x_sq
        d += np.einsum("ij,ij->i", centers, centers)
        raw = np.argmin(d, axis=1)
        counts = np.bincount(raw, minlength=centers.shape[0])
        if (counts == 0).any():
            keep = np.flatnonzero(counts > 0)
            remap = np.full(centers.shape[0], -1, dtype=np.int64)
            remap[keep] = np.arange(keep.size)
            raw = remap[raw]
            counts = counts[keep]
            centers = centers[keep]
        k = centers.shape[0]
        # one bincount over the (cluster, feature) bins of every entry; each
        # bin still adds its terms in increasing row order
        bins = (raw[:, None] * p + features).ravel()
        sums = np.bincount(bins, weights=x_flat, minlength=k * p).reshape(k, p)
        new_centers = sums / counts[:, None]
        moved = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        unchanged = prev is not None and prev.shape == raw.shape and np.array_equal(prev, raw)
        centers = new_centers
        prev = raw
        if unchanged or moved <= tol:
            break

    labels, k = compact_labels(prev)
    return Partition(labels, k)
