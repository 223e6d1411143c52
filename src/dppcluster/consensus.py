"""Consensus accumulation across runs, threshold graphs, connected
components, and small-cluster merging."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoCandidates, ShapeMismatch
from .metrics import ari
from .partition import Partition, compact_labels

__all__ = [
    "ConsensusConfig",
    "ConsensusMatrix",
    "Clustering",
    "UnionFind",
    "default_threshold_grid",
    "co_membership_counts",
    "accumulate",
    "threshold_components",
    "merge_small",
    "candidate_clusterings",
]


# Most runs per one-hot block in co_membership_counts.
_BATCH_RUNS = 16


def default_threshold_grid(tau: float) -> tuple[float, ...]:
    """Uniform grid of thresholds from tau (inclusive) in steps of 0.05 up to
    0.95 (inclusive), e.g. (0.6, 0.65, ..., 0.95) for tau = 0.6.

    Empty when tau > 0.95. Every threshold costs one components pass and one
    merging pass in selection, so the grid size sets selection time.
    """
    vals = []
    t = float(tau)
    while t <= 0.95 + 1e-9:
        vals.append(round(t, 10))
        t += 0.05
    return tuple(vals)


@dataclass(frozen=True)
class ConsensusConfig:
    """Parameters of the consensus stage.

    ``thresholds=None`` expands to a 0.05-spaced grid from ``tau`` to 0.95;
    ``a`` is the exponent of the minimal cluster size ceil(n ** a).
    """

    runs: int = 200
    tau: float = 0.6
    thresholds: tuple[float, ...] | None = None
    a: float = 0.5

    def __post_init__(self):
        if int(self.runs) < 1:
            raise ConfigError(f"runs must be at least 1, got {self.runs}")
        object.__setattr__(self, "runs", int(self.runs))
        if not 0.0 < self.tau < 1.0:
            raise ConfigError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0.0 < self.a < 1.0:
            raise ConfigError(f"minimal-size exponent a must lie in (0, 1), got {self.a}")
        if self.thresholds is None:
            grid = default_threshold_grid(self.tau)
            if not grid:
                raise ConfigError(
                    f"tau={self.tau} leaves the default threshold grid (tau..0.95) empty; "
                    "lower tau or pass thresholds"
                )
        else:
            grid = tuple(float(t) for t in self.thresholds)
            if not grid:
                raise ConfigError("thresholds must be nonempty")
            if any(t2 <= t1 for t1, t2 in zip(grid, grid[1:])):
                raise ConfigError("thresholds must be strictly ascending")
            if grid[0] < self.tau or grid[-1] >= 1.0:
                raise ConfigError("thresholds must lie in [tau, 1)")
        object.__setattr__(self, "thresholds", grid)


@dataclass(frozen=True)
class ConsensusMatrix:
    """n x n matrix of co-clustering proportions over ``runs`` runs."""

    entries: np.ndarray
    runs: int

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ShapeMismatch(f"consensus matrix must be square, got {e.shape}")
        if not np.array_equal(e, e.T):
            raise ConfigError("consensus matrix must be exactly symmetric")
        if not np.all(np.diag(e) == 1.0):
            raise ConfigError("consensus diagonal must be exactly 1")
        if e.min() < 0.0 or e.max() > 1.0:
            raise ConfigError("consensus entries must lie in [0, 1]")
        scaled = e * self.runs
        off_grid = np.rint(scaled)
        off_grid -= scaled
        if np.abs(off_grid, out=off_grid).max() > 1e-9:
            raise ConfigError("consensus entries must be integer multiples of 1/runs")
        object.__setattr__(self, "entries", e)
        e.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


@dataclass(frozen=True)
class Clustering(Partition):
    """A consolidated clustering: labels plus the threshold that produced it."""

    threshold: float | None = None
    merged: bool = False


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        p = self.parent
        while p[i] != i:
            p[i] = p[p[i]]
            i = p[i]
        return i

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra


def co_membership_counts(partitions, n: int) -> np.ndarray:
    """Per-pair count of the runs in which the pair co-clusters.

    A float64 matrix of exact integer counts, built as batched one-hot
    products H Hᵀ: each batch of up to ``_BATCH_RUNS`` runs stacks one 0/1
    indicator column per cluster into H, so an entry of one batch's product
    is at most ``_BATCH_RUNS`` (exact even in float32) and the float64 sums
    stay exact integers.  Fewer runs share a batch when they have many
    clusters, so H never has more than n columns.  Partial counts from
    disjoint batches of runs can be added together, so accumulation
    parallelizes and is order-invariant.
    """
    compact, widths = [], []
    for part in partitions:
        lab = np.asarray(getattr(part, "labels", part))
        if lab.shape != (n,):
            raise ShapeMismatch(f"partition has {lab.shape} labels, expected ({n},)")
        ids, inverse = np.unique(lab, return_inverse=True)
        compact.append(inverse.ravel())
        widths.append(ids.size)
    counts = np.zeros((n, n))
    rows = np.arange(n)[:, None]
    per_batch = min(_BATCH_RUNS, max(1, n // max(widths, default=1)))
    for start in range(0, len(compact), per_batch):
        stop = start + per_batch
        offsets = np.cumsum([0] + widths[start:stop])
        hot = np.zeros((n, offsets[-1]), dtype=np.float32)
        hot[rows, np.column_stack(compact[start:stop]) + offsets[:-1]] = 1.0
        counts += hot @ hot.T
    return counts


def accumulate(partitions, n: int) -> ConsensusMatrix:
    """Consensus matrix: per-pair proportion of runs sharing a cluster."""
    partitions = list(partitions)
    if not partitions:
        raise ConfigError("need at least one partition to accumulate")
    counts = co_membership_counts(partitions, n)
    runs = len(partitions)
    counts /= runs
    return ConsensusMatrix(counts, runs)


def threshold_components(C, theta: float) -> Partition:
    """Connected components of the graph linking pairs with consensus >= theta."""
    m = np.asarray(C)
    n = m.shape[0]
    uf = UnionFind(n)
    rows, cols = np.nonzero(np.triu(m >= theta, k=1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        uf.union(i, j)
    roots = np.fromiter((uf.find(i) for i in range(n)), dtype=np.int64, count=n)
    labels, k = compact_labels(roots)
    return Partition(labels, k)


def merge_small(components, C, min_size: int, threshold: float | None = None) -> Clustering:
    """Absorb every undersized component into its strongest consensus link.

    Repeatedly: take the smallest component below ``min_size`` (ties: the one
    whose smallest member index is lowest), find the largest consensus entry
    linking it to the outside (ties: lexicographically smallest index pair),
    and merge it into the component on the other end.  Stops when every
    component reaches ``min_size`` or one component remains.  The surviving
    components are numbered 0..k-1 in the order of their input ids.
    """
    if min_size < 1:
        raise ConfigError("min_size must be at least 1")
    m = np.asarray(C)
    labels, _ = compact_labels(np.asarray(getattr(components, "labels", components)))
    merged = False
    while True:
        _, first, sizes = np.unique(labels, return_index=True, return_counts=True)
        if sizes.size <= 1:
            break
        min_sz = sizes.min()
        if min_sz >= min_size:
            break
        # every cluster of the smallest size is undersized; the lowest first
        # member index picks one
        target = labels[first[sizes == min_sz].min()]
        inside = np.flatnonzero(labels == target)
        outside = np.flatnonzero(labels != target)
        link = m[np.ix_(inside, outside)]
        flat = int(np.argmax(link))  # row-major argmax = lexicographic tie-break
        labels[inside] = labels[outside[flat % outside.size]]
        merged = True
    labels, k = compact_labels(labels)
    return Clustering(labels, k, threshold, merged)


def candidate_clusterings(C, cfg: ConsensusConfig, n: int) -> list[Clustering]:
    """One merged clustering per threshold, deduplicated, single-cluster
    results dropped.

    Duplicates (identical up to relabeling, i.e. pairwise ARI of exactly 1)
    keep the lowest threshold.  Raises NoCandidates with the per-threshold
    cluster-count table when nothing survives.
    """
    min_size = math.ceil(n ** cfg.a)
    kept: list[Clustering] = []
    k_by_threshold: dict[float, int] = {}
    for theta in cfg.thresholds:
        comp = threshold_components(C, theta)
        clus = merge_small(comp, C, min_size, threshold=theta)
        k_by_threshold[theta] = clus.k
        if clus.k <= 1:
            continue
        if any(ari(clus.labels, prev.labels) == 1.0 for prev in kept):
            continue
        kept.append(clus)
    if not kept:
        raise NoCandidates(
            "every threshold produced a single cluster", k_by_threshold=k_by_threshold
        )
    return kept
