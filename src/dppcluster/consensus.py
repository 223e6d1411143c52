"""Consensus accumulation across runs, the maximum spanning tree whose cuts
give every threshold graph's components, and small-cluster merging."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoCandidates, ShapeMismatch, checked_int
from .partition import Partition, compact_labels

__all__ = [
    "ConsensusConfig",
    "ConsensusMatrix",
    "Clustering",
    "default_threshold_grid",
    "co_membership_counts",
    "accumulate",
    "spanning_tree",
    "threshold_components",
    "merge_small",
    "candidate_clusterings",
]


# Entries per row block of the ConsensusMatrix checks, which bounds their
# temporaries to a few hundred kilobytes at any n.
_CHECK_ENTRIES = 1 << 16

# Rows per block of a one-hot product: tall enough that the blocks together
# run as fast as one symmetric product (measured at n = 1500 and 5000).
_PRODUCT_ROWS = 256

# Indicator columns per one-hot batch, so a batch takes 4 n BATCH_COLUMNS
# bytes at any number of runs or clusters; 256 to 512 columns accumulated as
# fast as batches of n columns at n = 1500.  Selection's scatter passes
# share the budget.
BATCH_COLUMNS = 256


def _row_blocks(n: int):
    """Consecutive row slices of an n x n matrix, about _CHECK_ENTRIES each."""
    step = max(1, _CHECK_ENTRIES // max(n, 1))
    return (slice(r, r + step) for r in range(0, n, step))


def default_threshold_grid(tau: float) -> tuple[float, ...]:
    """Uniform grid of thresholds from tau (inclusive) in steps of 0.05 up to
    0.95 (inclusive), e.g. (0.6, 0.65, ..., 0.95) for tau = 0.6.

    Empty when tau > 0.95. Every threshold costs one cut of the spanning
    tree and one merging pass in selection.
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
        object.__setattr__(self, "runs", checked_int("runs", self.runs, 1))
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
            if not all(self.tau <= t < 1.0 for t in grid):
                raise ConfigError("thresholds must lie in [tau, 1)")
        object.__setattr__(self, "thresholds", grid)


@dataclass(frozen=True)
class ConsensusMatrix:
    """n x n co-membership counts over ``runs`` runs: entry (i, j) is the
    number of runs that put i and j in one cluster, the co-association
    matrix of evidence accumulation (Fred & Jain 2005).

    The counts live in the smallest unsigned type that holds ``runs``
    (uint8 up to 255 runs, then uint16, then uint32), in a read-only array.
    A read-only array of that type is shared, as ``co_membership_counts``
    returns it, so ``accumulate`` copies nothing; anything else, a writable
    array or one of another type, is copied, and the caller's array is
    never frozen.  The
    consensus of a pair is the proportion count / runs.  c / runs is
    strictly increasing in c, and the float64 quotients of distinct counts
    stay distinct (they differ by at least 1/runs, far above their
    rounding), so every comparison, maximum and tie over the counts is the
    one over the proportions.  Selection reads the counts and converts only
    the values it compares with thresholds; ``entries`` builds the
    proportions as a new n x n float64 array, for tests and export.
    """

    counts: np.ndarray
    runs: int

    def __post_init__(self):
        runs = int(self.runs)
        if runs < 1:
            raise ConfigError(f"runs must be at least 1, got {self.runs}")
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ShapeMismatch(f"consensus matrix must be square, got {c.shape}")
        if c.dtype.kind not in "ui":
            raise ConfigError(f"consensus counts must be integers, got dtype {c.dtype}")
        if not all(np.array_equal(c[rows], c[:, rows].T) for rows in _row_blocks(c.shape[0])):
            raise ConfigError("consensus matrix must be exactly symmetric")
        if not np.all(c.diagonal() == runs):
            raise ConfigError(f"consensus diagonal must equal runs={runs}")
        if c.min() < 0 or c.max() > runs:
            raise ConfigError(f"consensus counts must lie in [0, runs={runs}]")
        count_type = np.min_scalar_type(runs)
        if c.flags.writeable or c.dtype != count_type:
            c = c.astype(count_type)
            c.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "runs", runs)

    @property
    def n(self) -> int:
        return self.counts.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The proportions counts / runs, the floats of dividing each count
        by ``runs`` in float64, as a new n x n array."""
        return self.counts / self.runs

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def _signed(counts_dtype) -> np.dtype:
    """The smallest signed type that holds every count and the marker -1."""
    return np.promote_types(counts_dtype, np.int8)


@dataclass(frozen=True)
class Clustering(Partition):
    """A consolidated clustering: labels plus the threshold that produced it."""

    threshold: float | None = None
    merged: bool = False


def co_membership_counts(partitions, n: int) -> np.ndarray:
    """Per-pair count of the runs in which the pair co-clusters, in the
    smallest unsigned type that holds the number of runs R (uint8 for
    R <= 255, uint16 for R <= 65 535, then uint32), as a read-only array.

    Built as batched one-hot products H Hᵀ.  H stacks one float32 0/1
    indicator column per cluster of each run, in run order, and a batch
    takes the next BATCH_COLUMNS of those columns, so a run's clusters may
    spill into the next batch; the product sums over columns, so the split
    changes no count.  A point has one 1 among a run's columns, so an entry
    of a batch's product counts runs of that batch, at most
    min(BATCH_COLUMNS, R): exact in float32 and in the count type.  One
    batch buffer of 4 n BATCH_COLUMNS bytes is reused, and the product is
    formed one row block of its upper trapezoid at a time (the flops of one
    symmetric product, and 4 n _PRODUCT_ROWS bytes), so besides the counts
    (n² bytes at R <= 255) the transients are O(n BATCH_COLUMNS) at any R
    and any number of clusters.  Each block is cast to the count type
    before it is added, so the sum is integer arithmetic; no entry exceeds
    R, so it cannot overflow.  The lower triangle is copied from the upper
    one at the end.  The cost stays n² flops per cluster column, so runs
    with hundreds of clusters accumulate slower than by comparing labels.

    A ``Partition``'s ids and k are used as they are, compact by
    construction; raw label arrays go through ``compact_labels`` as their
    run reaches the batch.  Partial counts from disjoint sets of runs can
    be added together, in a type that holds their total, so accumulation
    parallelizes and is order-invariant.
    """
    partitions = list(partitions)
    counts = np.zeros((n, n), dtype=np.min_scalar_type(len(partitions)))
    hot = np.zeros((n, BATCH_COLUMNS), dtype=np.float32)
    used = 0  # columns of hot filled

    def add_batch():
        for top in range(0, n, _PRODUCT_ROWS):
            end = top + _PRODUCT_ROWS
            counts[top:end, top:] += (hot[top:end, :used] @ hot[top:, :used].T).astype(counts.dtype)
        hot[:, :used] = 0.0

    every = np.arange(n)
    for part in partitions:
        lab = np.asarray(getattr(part, "labels", part))
        if lab.shape != (n,):
            raise ShapeMismatch(f"partition has {lab.shape} labels, expected ({n},)")
        lab, k = (lab, part.k) if isinstance(part, Partition) else compact_labels(lab)
        first = 0  # the run's clusters below this id are in earlier batches
        while first < k:
            width = min(k - first, BATCH_COLUMNS - used)
            cols = hot[:, used : used + width]
            if width == k:
                cols[every, lab] = 1.0
            else:  # clusters first .. first + width - 1 of a run that spills
                rows = np.flatnonzero((lab >= first) & (lab < first + width))
                cols[rows, lab[rows] - first] = 1.0
            first += width
            used += width
            if used == BATCH_COLUMNS:
                add_batch()
                used = 0
    if used:
        add_batch()
    for top in range(0, n, _PRODUCT_ROWS):
        end = top + _PRODUCT_ROWS
        counts[end:, top:end] = counts[top:end, end:].T
    counts.setflags(write=False)
    return counts


def accumulate(partitions, n: int) -> ConsensusMatrix:
    """Consensus matrix of the runs: the integer co-membership counts and
    their number, with no float pass over the n x n counts."""
    partitions = list(partitions)
    if not partitions:
        raise ConfigError("need at least one partition to accumulate")
    return ConsensusMatrix(co_membership_counts(partitions, n), len(partitions))


def spanning_tree(C: ConsensusMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Prim's maximum spanning tree of the consensus graph from node 0, as
    ``(order, link)``: the nodes in visiting order, and for each its largest
    consensus with the nodes visited before it (-inf for node 0).  Single
    linkage (Fred & Jain 2005): every threshold's components are its cuts.

    Prim runs on the integer count rows, -1 marking visited nodes, and
    ``link`` holds proportions, count / runs, the same floats the
    thresholds are compared with.  c / runs is strictly increasing in c, so
    the maxima and their ties are those of the proportions.
    """
    counts = C.counts
    n = len(counts)
    order = np.empty(n, dtype=np.int64)
    key = np.full(n, -1, dtype=_signed(counts.dtype))  # best link of each unvisited node
    best = np.empty_like(key)
    unvisited = np.ones(n, dtype=bool)
    j = 0
    for step in range(n):
        order[step], best[step] = j, key[j]
        key[j], unvisited[j] = -1, False
        np.maximum(key, counts[j], out=key, where=unvisited)
        j = int(np.argmax(key))
    link = best / C.runs
    link[0] = -np.inf
    return order, link


def threshold_components(tree, theta: float) -> Partition:
    """Components of the graph linking pairs with consensus >= theta, cut
    from ``spanning_tree(C)`` and numbered by their smallest member.

    Prim visits each component as one contiguous run (while part of it is
    unvisited, it holds the only links >= theta), which starts exactly where
    ``link >= theta`` fails.
    """
    order, link = tree
    starts = ~(link >= theta)
    run = np.cumsum(starts) - 1
    smallest = np.minimum.reduceat(order, np.flatnonzero(starts))
    labels = np.empty_like(order)
    labels[order] = smallest[run]
    return Partition(*compact_labels(labels))


def merge_small(
    components, C: ConsensusMatrix, min_size: int, threshold: float | None = None
) -> Clustering:
    """Absorb every undersized component into its strongest consensus link.

    Repeatedly: take the smallest component below ``min_size`` (ties: the one
    whose smallest member index is lowest), find the largest consensus entry
    linking it to the outside (ties: lexicographically smallest index pair),
    and merge it into the component on the other end, which keeps its id.
    Stops when every component reaches ``min_size`` or one component
    remains.  The surviving components are numbered 0..k-1 in the order of
    their input ids.

    Cost per merge: one step of a heap of the undersized components and one
    |inside| x n row block of the counts, in a signed integer type with -1
    on the inside columns; the order of counts is the order of proportions.
    The spanning tree's heaviest crossing edge gives the strongest link's
    value but not the lexicographically smallest pair reaching it, and
    counts tie often, so the rows are scanned.
    """
    if min_size < 1:
        raise ConfigError("min_size must be at least 1")
    counts = C.counts
    scan_type = _signed(counts.dtype)
    labels, k = compact_labels(np.asarray(getattr(components, "labels", components)))
    # sorted members of each component, from one stable sort of the labels
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    sizes = [len(idx) for idx in members]
    # (size, smallest member, id) of the undersized components; an entry is
    # stale once its component's size has changed (absorbed ones read 0)
    heap = [(size, int(idx[0]), cid) for cid, (size, idx) in enumerate(zip(sizes, members))
            if size < min_size]
    heapq.heapify(heap)
    merged = False
    while heap and k > 1:
        size, _, target = heapq.heappop(heap)
        if size != sizes[target]:
            continue
        inside = members[target]
        link = counts[inside].astype(scan_type)
        link[:, inside] = -1
        flat = int(np.argmax(link))  # row-major argmax = lexicographic tie-break
        dest = int(labels[flat % labels.size])
        labels[inside] = dest
        sizes[dest] += size
        sizes[target] = 0
        if sizes[dest] < min_size:
            members[dest] = np.sort(np.concatenate((members[dest], inside)))
            heapq.heappush(heap, (sizes[dest], int(members[dest][0]), dest))
        k -= 1
        merged = True
    labels, k = compact_labels(labels)
    return Clustering(labels, k, threshold, merged)


def candidate_clusterings(C: ConsensusMatrix, cfg: ConsensusConfig) -> list[Clustering]:
    """One merged clustering per threshold, each cut from one spanning tree,
    deduplicated, single-cluster results dropped.

    Duplicates (equal up to renaming) keep the lowest threshold.  Raises
    NoCandidates with the per-threshold cluster-count table when nothing
    survives.
    """
    tree = spanning_tree(C)
    min_size = math.ceil(tree[0].size ** cfg.a)
    kept: list[Clustering] = []
    seen: set[bytes] = set()
    k_by_threshold: dict[float, int] = {}
    for theta in cfg.thresholds:
        comp = threshold_components(tree, theta)
        clus = merge_small(comp, C, min_size, threshold=theta)
        k_by_threshold[theta] = clus.k
        if clus.k <= 1:
            continue
        # the labels renumbered by first occurrence: equal iff the
        # partitions are equal up to renaming
        first = np.unique(clus.labels, return_index=True)[1]
        key = np.argsort(np.argsort(first))[clus.labels].tobytes()
        if key not in seen:
            seen.add(key)
            kept.append(clus)
    if not kept:
        raise NoCandidates(
            "every threshold produced a single cluster", k_by_threshold=k_by_threshold
        )
    return kept
