"""Partitions of a dataset: Voronoi assignment and Lloyd's iterations."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeMismatch
from .kernel import KernelMatrix, as_data_matrix, expansion_error, sq_dists_between

__all__ = ["Partition", "PartitionStack", "voronoi_assign", "lloyd_kmeans"]


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


class PartitionStack(Sequence):
    """R partitions of the same n points as one (R, n) array of labels in
    an unsigned type, with each run's k: a ``Sequence`` of ``Partition``.

    Item i is ``Partition(labels[i], ks[i])``, a new int64 copy of row i,
    whose ids are checked then.  A slice is a ``PartitionStack`` whose
    labels are a view of these, so it copies no label and pickles as its
    own rows alone, r n bytes in uint8.  As slices share the labels, they
    are kept read-only (``ensemble_runs`` freezes them).
    """

    __slots__ = ("labels", "ks")

    def __init__(self, labels: np.ndarray, ks: tuple[int, ...]):
        if labels.ndim != 2 or labels.dtype.kind != "u" or labels.shape[0] != len(ks):
            raise ShapeMismatch(f"need one unsigned row per k, got {labels.dtype} {labels.shape}")
        self.labels, self.ks = labels, ks

    def __len__(self) -> int:
        return len(self.ks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PartitionStack(self.labels[index], self.ks[index])
        return Partition(self.labels[index], self.ks[index])


def compact_labels(raw) -> tuple[np.ndarray, int]:
    """Relabel integer ids in [0, len(raw)) to 0..k-1 in their order: each
    id becomes the number of distinct ids below it, from one count of every
    id up to the largest.  The range is not checked, as every caller's ids
    (nearest generators, component or cluster numbers) lie in it; a negative
    id raises numpy's ValueError.  Contiguous ids are returned as they are."""
    raw = np.asarray(raw)
    counts = np.bincount(raw)
    if counts.all():
        return raw, counts.size
    kept = counts > 0
    return (np.cumsum(kept) - 1)[raw], int(kept.sum())


def voronoi_assign(data, gens) -> Partition:
    """Assign every observation to its nearest generator.

    ``data`` is a ``KernelMatrix``, whose centred rows (``expansion``) are
    computed once per kernel and shared by every call; raw (n, p) data is
    wrapped as one.  Ties go to the earliest generator in ``gens.indices``;
    cells emptied by ties are removed and labels compacted.  An index
    outside [0, n) raises ShapeMismatch.

    The labels are those of the exact squared distances
    (``sq_dists_between(x[idx], x)``, first generator on ties), found
    without computing most of them.  With the data centred, one matrix
    product gives every point x its key |g|^2 - 2 g.x for every generator
    g, the squared distance less |x|^2.  Each key lies within
    expansion_error(p) (|x| + max |g|)^2 <= tol / 2, tol =
    4 expansion_error(p) (|x|^2 + max |g|^2), of the exact distance less
    |x|^2 (``expansion_error``).  So a point whose least key is the only one
    within tol of it has the same nearest generator under the exact
    distances; the few others (ties, coinciding generators, points nearly
    equidistant from two) get their exact distances and the first-on-ties
    argmin.
    """
    idx = np.asarray(getattr(gens, "indices", gens), dtype=int)
    if idx.size == 0:
        raise ConfigError("generator set is empty")
    kernel = data if isinstance(data, KernelMatrix) else KernelMatrix(data, -1.0)
    x, (rows, _, sq) = kernel.data, kernel.expansion
    n, p = x.shape
    if idx.min() < 0 or idx.max() >= n:
        raise ShapeMismatch(f"generator index out of range [0, {n})")
    k = idx.size
    # generators [-2 g, 0, |g|^2] against rows [x, *, 1]: the product is the keys
    gens_aug = np.zeros((k, p + 2))
    np.multiply(rows[idx, :p], -2.0, out=gens_aug[:, :p])
    gens_aug[:, -1] = sq[idx]
    keys = gens_aug @ rows.T
    tol = sq + sq[idx].max()
    tol *= 4.0 * expansion_error(p)
    tol += keys.min(axis=0)
    # per point: how many keys lie within tol of the least, and, when one
    # does, its generator (NaN keys leave none)
    count, at = np.array([[1.0] * k, range(k)]) @ (keys <= tol)
    best = at.astype(np.intp)
    near = np.flatnonzero(count != 1.0)
    if near.size:
        best[near] = sq_dists_between(x[near], x[idx]).argmin(axis=1)
    return Partition(*compact_labels(best))


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
            keep = counts > 0
            raw = (np.cumsum(keep) - 1)[raw]
            counts, centers = counts[keep], centers[keep]
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

    return Partition(prev, k)
