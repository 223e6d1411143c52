"""End-to-end orchestration: kernel built once, R partition runs (serial or
process-parallel), consensus accumulation, candidate selection, and quality
metrics.

Every run r draws from its own random stream (seed, r), and the consensus
counts merge by integer addition.  Runs are drawn in fixed blocks of
RUN_BLOCK consecutive run indices, [b RUN_BLOCK, (b + 1) RUN_BLOCK) cut at
R, and a block is one task whether it runs serially or on a worker: the DPP
draws of a block run in lockstep, and their rounding depends on the block's
runs only.  ``defer_tasks`` alone decides where a task runs: it turns
each task into a callable that returns the task's result, computed in
this process or on a worker.  The ensemble is the runs' labels, one
(R, n) array with a row per run.  ``bench.benchmark`` opens one pool per
dataset (``artifacts_pool``) that runs both the run blocks and the prefix
selections of every method; a prefix selection reads only its prefix's
rows.  So results are byte-identical at every worker count and in
whichever order the tasks finish, and a run in a complete block draws the
same at every R.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .consensus import (
    Clustering,
    ConsensusConfig,
    ConsensusMatrix,
    accumulate,
    candidate_clusterings,
)
from .errors import ConfigError, ShapeMismatch, checked_int
from .kernel import (
    KernelMatrix,
    SpectralDecomposition,
    build_rbf_kernel,
    eigendecompose,
    estimate_bandwidth,
)
from .metrics import ari, rn
from .partition import lloyd_kmeans, voronoi_assign
from .preprocess import PREPROCESSORS, apply_preprocessing
from .rng import RngStream
from .sampling import (
    GeneratorSet,
    default_k_max,
    dpp_log_likelihood,
    kmeanspp_indices,
    sample_dpp_block,
    sample_uniform,
)
from .validation import SelectionResult, kvi, scatter_reports

__all__ = [
    "PipelineConfig",
    "KernelArtifacts",
    "EnsembleResult",
    "RunReport",
    "build_artifacts",
    "defer_tasks",
    "ensemble_runs",
    "ensemble_draws",
    "select_clustering",
    "run_pipeline",
]

METHODS = ("dpp", "uniform", "kmeans")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to reproduce one clustering run end to end."""

    method: str = "dpp"
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    s: float = 1.0
    k_max: int | None = None
    seed: int = 0
    preprocessing: str = "none"
    workers: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.preprocessing not in PREPROCESSORS:
            raise ConfigError(f"unknown preprocessing {self.preprocessing!r}")
        if not 0.0 < self.s < math.inf:  # also rejects NaN
            raise ConfigError(f"bandwidth factor s must be positive and finite, got {self.s!r}")
        if self.k_max is not None:
            object.__setattr__(self, "k_max", checked_int("k_max", self.k_max, 2))
        object.__setattr__(self, "seed", checked_int("seed", self.seed, 0))
        object.__setattr__(self, "workers", checked_int("workers", self.workers, 1))


@dataclass(frozen=True)
class KernelArtifacts:
    """Immutable per-dataset state shared by all runs.

    ``data`` is the preprocessed data, the read-only array the kernel
    holds.  ``sq_dists`` is always None: no distance matrix is stored, as
    the kernel computes its entries from the data.  The field stays because
    the benchmark's tracer (``perfbench/tracing.py``) reads it.
    """

    data: np.ndarray
    sq_dists: None
    sigma2_hat: float
    kernel: KernelMatrix
    spectral: SpectralDecomposition
    log_det_norm: float

    @property
    def n(self) -> int:
        return self.data.shape[0]


def build_artifacts(data, s: float = 1.0, preprocessing: str = "none") -> KernelArtifacts:
    """Preprocess, then estimate the bandwidth and build the kernel and its
    spectral decomposition for a dataset; no n x n array is kept."""
    x = apply_preprocessing(data, preprocessing)
    sigma2 = estimate_bandwidth(x)
    kernel = build_rbf_kernel(x, sigma2, s)
    spectral = eigendecompose(kernel)
    return KernelArtifacts(
        kernel.data, None, sigma2, kernel, spectral, spectral.log_det_plus_identity()
    )


@dataclass
class EnsembleResult:
    """The runs' labels plus per-run diagnostics, ordered by run index.

    ``partitions`` is the R runs' labels in one read-only R x n array of
    the narrowest unsigned type that holds every id, R n bytes while ids
    fit in uint8: row r holds run r's ids 0..k_r - 1.  The prefix of the
    first r runs is ``partitions[:r]``, a view, which copies nothing.
    """

    partitions: np.ndarray
    subset_sizes: np.ndarray
    log_likelihoods: np.ndarray


# Runs per task: block b holds runs [b RUN_BLOCK, (b + 1) RUN_BLOCK) of the
# R runs, whatever the worker count, so a block's DPP draws always run in
# lockstep with the same neighbours.  25 gives R = 200 eight equal tasks.
RUN_BLOCK = 25


def _block_draws(runs: range, artifacts: KernelArtifacts, method, seed, k_max):
    """Draw the generators of the runs in ``runs`` and their log-likelihoods.
    Only the draw reads a run's stream (seed, r), so skipping the partition
    moves no draw."""
    streams = [RngStream(seed, r) for r in runs]
    if method == "dpp":
        sets = sample_dpp_block(artifacts.spectral, streams)
    elif method == "uniform":
        sets = [sample_uniform(artifacts.n, k_max, stream) for stream in streams]
    else:  # kmeans: uniform size draw, k-means++ seeding
        sets = []
        for stream in streams:
            g = stream.generator
            k = int(g.integers(2, k_max + 1))
            sets.append(GeneratorSet(kmeanspp_indices(artifacts.data, k, g)))
    return [
        (gens, dpp_log_likelihood(artifacts.kernel, gens, artifacts.log_det_norm))
        for gens in sets
    ]


def _block_runs(runs: range, artifacts: KernelArtifacts, method, seed, k_max):
    """The runs' labels as one (len(runs), n) array of the narrowest
    unsigned type that holds their ids, and each run's (subset size,
    log-likelihood)."""
    labels, out = [], []
    data = artifacts.data
    for gens, loglik in _block_draws(runs, artifacts, method, seed, k_max):
        if method == "kmeans":  # Lloyd refinement from the k-means++ seeds
            part = lloyd_kmeans(data, data[list(gens.indices)])
        else:  # on the kernel's centred rows, shared by the runs
            part = voronoi_assign(artifacts.kernel, gens)
        labels.append(part.labels.astype(np.min_scalar_type(part.k - 1)))
        out.append((len(gens), loglik))
    return np.array(labels, np.result_type(*labels)), out


_WORKER_ARTIFACTS: KernelArtifacts | None = None


def _init_worker(artifacts: KernelArtifacts):
    global _WORKER_ARTIFACTS
    _WORKER_ARTIFACTS = artifacts


def _on_worker(fn, task, *args):
    """``fn(task, artifacts, *args)`` with the artifacts this worker's
    initializer stored."""
    return fn(task, _WORKER_ARTIFACTS, *args)


def artifacts_pool(artifacts: KernelArtifacts, workers: int):
    """A context holding a pool of ``workers`` processes whose initializer
    stores ``artifacts`` once per worker, so a task sends only its own
    arguments; with one worker the context holds None and no process
    starts.

    The pool holds at most as many processes as this process may run on,
    and at least two: results are identical at every worker count, and a
    larger request would only fork idle processes at the first task.
    """
    if workers <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return ProcessPoolExecutor(
        max_workers=min(workers, max(2, cpus or 1)),
        initializer=_init_worker,
        initargs=(artifacts,),
    )


def defer_tasks(pool, fn, tasks, artifacts: KernelArtifacts, *args) -> list:
    """One zero-argument callable per task, in task order, returning (or
    raising) ``fn(task, artifacts, *args)``: run here when called without
    a pool, or submitted now to ``pool``, an ``artifacts_pool`` of the same
    artifacts, which pickles ``fn`` by its import path."""
    if pool is None:
        return [partial(fn, task, artifacts, *args) for task in tasks]
    return [pool.submit(_on_worker, fn, task, *args).result for task in tasks]


def _map_blocks(fn, artifacts: KernelArtifacts, cfg: PipelineConfig, pool=None):
    """``fn(block, artifacts, method, seed, k_max)`` for every block of
    RUN_BLOCK runs, yielded in run order, on ``pool`` or, when none is
    given, on an ``artifacts_pool`` of ``cfg.workers`` of its own."""
    runs = cfg.consensus.runs
    n = artifacts.n
    k_max = cfg.k_max if cfg.k_max is not None else default_k_max(n)
    if k_max > n:
        raise ConfigError(f"k_max={k_max} exceeds n={n}")
    blocks = [range(top, min(top + RUN_BLOCK, runs)) for top in range(0, runs, RUN_BLOCK)]
    with nullcontext(pool) if pool else artifacts_pool(artifacts, cfg.workers) as pool:
        for call in defer_tasks(pool, fn, blocks, artifacts, cfg.method, cfg.seed, k_max):
            yield call()


def _map_runs(fn, artifacts: KernelArtifacts, cfg: PipelineConfig, pool=None) -> list:
    """The runs of every block of ``_map_blocks``, flattened in run order."""
    return [run for block in _map_blocks(fn, artifacts, cfg, pool) for run in block]


def ensemble_runs(artifacts: KernelArtifacts, cfg: PipelineConfig, pool=None) -> EnsembleResult:
    """Execute R independent partition runs over the shared artifacts, on
    ``pool`` when one is given (see ``_map_blocks``).

    Each block's labels are copied into the R x n label array as the block
    arrives; the array widens only when a run has more than 256 clusters.
    Serially the peak is the array plus one block's transients.
    """
    stack = np.empty((cfg.consensus.runs, artifacts.n), np.uint8)
    runs = []
    for labels, block in _map_blocks(_block_runs, artifacts, cfg, pool):
        stack = stack.astype(np.promote_types(stack.dtype, labels.dtype), copy=False)
        stack[len(runs) : len(runs) + len(block)] = labels
        runs += block
    stack.setflags(write=False)
    sizes = np.array([size for size, _ in runs], dtype=np.int64)
    logliks = np.array([ll for _, ll in runs], dtype=float)
    return EnsembleResult(stack, sizes, logliks)


def ensemble_draws(
    artifacts: KernelArtifacts, cfg: PipelineConfig, pool=None
) -> tuple[np.ndarray, np.ndarray]:
    """Subset sizes and log-likelihoods of the R runs, equal to those of
    ``ensemble_runs``, without building the partitions."""
    results = _map_runs(_block_draws, artifacts, cfg, pool)
    sizes = np.array([len(gens) for gens, _ in results], dtype=np.int64)
    logliks = np.array([ll for _, ll in results], dtype=float)
    return sizes, logliks


def select_clustering(
    kernel, consensus_matrix: ConsensusMatrix, cfg: ConsensusConfig
) -> SelectionResult:
    """Thresholds -> merged candidates -> index-based choice.

    The candidates' scatter statistics come from one pass over blocks of
    the rows of ``kernel`` (``scatter_reports``), a ``KernelMatrix`` that
    is never materialised; any other type raises ConfigError before any
    candidate is built.
    """
    if not isinstance(kernel, KernelMatrix):
        raise ConfigError(f"select_clustering takes a KernelMatrix, got {type(kernel).__name__}")
    cands = candidate_clusterings(consensus_matrix, cfg)
    return kvi(zip(cands, scatter_reports(kernel, cands)))


@dataclass
class RunReport:
    """Everything run_pipeline produced, JSON-serializable.

    ``timings`` are wall-clock seconds per stage; the text report prints
    them, and the serialized report leaves them out, so reports from
    identical (data, config) pairs compare byte-for-byte.
    """

    method: str
    n: int
    runs: int
    seed: int
    s: float
    preprocessing: str
    sigma2_hat: float
    labels: np.ndarray
    k_hat: int
    threshold: float | None
    merged: bool
    alpha: float
    candidates: tuple
    ari: float | None
    rn_signed: float | None
    rn_abs: float | None
    k_true: int | None
    subset_sizes: np.ndarray
    log_likelihoods: np.ndarray
    consensus: ConsensusMatrix
    timings: dict[str, float]

    def to_dict(self) -> dict:
        def num(v):
            if v is None:
                return None
            v = float(v)
            return v if np.isfinite(v) else None

        return {
            "method": self.method,
            "n": self.n,
            "runs": self.runs,
            "seed": self.seed,
            "s": num(self.s),
            "preprocessing": self.preprocessing,
            "sigma2_hat": num(self.sigma2_hat),
            "k_hat": self.k_hat,
            "threshold": num(self.threshold),
            "merged": self.merged,
            "alpha": num(self.alpha),
            "labels": [int(v) for v in self.labels],
            "candidates": [
                {
                    "threshold": num(c.threshold),
                    "k": c.k,
                    "w_v": num(c.w_v),
                    "b_tilde": num(c.b_tilde),
                    "sr": num(c.sr),
                    "kvi": num(c.kvi),
                    "excluded": c.excluded,
                    "reason": c.reason,
                }
                for c in self.candidates
            ],
            "metrics": (
                None
                if self.ari is None
                else {
                    "ari": num(self.ari),
                    "rn": num(self.rn_signed),
                    "rn_abs": num(self.rn_abs),
                    "k_true": self.k_true,
                }
            ),
            "diagnostics": {
                "subset_sizes": [int(v) for v in self.subset_sizes],
                "log_likelihoods": [num(v) for v in self.log_likelihoods],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def run_pipeline(data, cfg: PipelineConfig, truth: Sequence[int] | None = None) -> RunReport:
    """Cluster one dataset end to end under ``cfg``.

    Builds the kernel and its decomposition once, runs R sampling+partition
    rounds, accumulates the consensus matrix, extracts candidates over the
    threshold grid, picks the index-minimizing clustering, and scores it
    against ``truth`` when labels are supplied: one per row of ``data``,
    else ShapeMismatch before any work.
    """
    if truth is not None:
        truth, rows = np.asarray(truth), np.shape(data)[:1]
        if truth.shape != rows:
            raise ShapeMismatch(f"truth has shape {truth.shape}, expected {rows}")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    artifacts = build_artifacts(data, s=cfg.s, preprocessing=cfg.preprocessing)
    timings["kernel"] = time.perf_counter() - t0
    n = artifacts.n

    t0 = time.perf_counter()
    ens = ensemble_runs(artifacts, cfg)
    timings["runs"] = time.perf_counter() - t0
    # nothing after the runs reads the eigenvectors: free them before the
    # consensus matrix is built; selection computes kernel row blocks from
    # the data the kernel holds
    kernel, sigma2_hat = artifacts.kernel, artifacts.sigma2_hat
    del artifacts

    t0 = time.perf_counter()
    consensus_matrix = accumulate(ens.partitions, n)
    timings["consensus"] = time.perf_counter() - t0
    # nothing after accumulation reads the runs' labels
    sizes, logliks = ens.subset_sizes, ens.log_likelihoods
    del ens

    t0 = time.perf_counter()
    selection = select_clustering(kernel, consensus_matrix, cfg.consensus)
    timings["selection"] = time.perf_counter() - t0

    chosen: Clustering = selection.chosen
    ari_val = rn_val = rn_abs_val = None
    k_true = None
    if truth is not None:
        ari_val = ari(chosen.labels, truth)
        # counts keep np.unique off its hash path, which imports numpy.ma
        k_true = int(np.unique(truth, return_counts=True)[1].size)
        rn_val = rn(chosen.k, k_true)
        rn_abs_val = abs(rn_val)

    return RunReport(
        method=cfg.method,
        n=n,
        runs=cfg.consensus.runs,
        seed=cfg.seed,
        s=cfg.s,
        preprocessing=cfg.preprocessing,
        sigma2_hat=sigma2_hat,
        labels=chosen.labels,
        k_hat=chosen.k,
        threshold=chosen.threshold,
        merged=chosen.merged,
        alpha=selection.alpha,
        candidates=selection.scores,
        ari=ari_val,
        rn_signed=rn_val,
        rn_abs=rn_abs_val,
        k_true=k_true,
        subset_sizes=sizes,
        log_likelihoods=logliks,
        consensus=consensus_matrix,
        timings=timings,
    )
