"""End-to-end orchestration: kernel built once, R partition runs (serial or
process-parallel), consensus accumulation, candidate selection, and quality
metrics.

Every run r draws from its own random stream (seed, r), and the consensus
counts merge by integer addition, so results are byte-identical no matter
how many workers execute the runs or in which order they finish.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .consensus import (
    Clustering,
    ConsensusConfig,
    ConsensusMatrix,
    accumulate,
    candidate_clusterings,
)
from .errors import ConfigError
from .kernel import (
    BandwidthConfig,
    KernelMatrix,
    SpectralDecomposition,
    as_data_matrix,
    build_rbf_kernel,
    eigendecompose,
    estimate_bandwidth,
    pairwise_sq_dists,
)
from .metrics import ari, rn
from .partition import Partition, lloyd_kmeans, voronoi_assign
from .preprocess import PREPROCESSORS, apply_preprocessing
from .rng import RngStream
from .sampling import (
    BaselineConfig,
    GeneratorSet,
    default_k_max,
    dpp_log_likelihood,
    kmeanspp_indices,
    sample_dpp,
    sample_uniform,
)
from .validation import SelectionResult, kvi, scatter_reports

__all__ = [
    "PipelineConfig",
    "KernelArtifacts",
    "EnsembleResult",
    "RunReport",
    "build_artifacts",
    "ensemble_runs",
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
        if not self.s > 0:
            raise ConfigError("bandwidth factor s must be positive")
        if self.k_max is not None and int(self.k_max) < 2:
            raise ConfigError("k_max must be at least 2")
        if int(self.workers) < 1:
            raise ConfigError("workers must be at least 1")


@dataclass(frozen=True)
class KernelArtifacts:
    """Immutable per-dataset state shared by all runs."""

    data: np.ndarray
    sq_dists: np.ndarray
    sigma2_hat: float
    kernel: KernelMatrix
    spectral: SpectralDecomposition
    log_det_norm: float

    @property
    def n(self) -> int:
        return self.data.shape[0]


def build_artifacts(data, s: float = 1.0, preprocessing: str = "none") -> KernelArtifacts:
    """Preprocess, then build the shared distance matrix, the kernel over
    it, and the spectral decomposition for a dataset."""
    x = apply_preprocessing(data, preprocessing)
    d2 = pairwise_sq_dists(x)
    sigma2 = estimate_bandwidth(x, sq_dists=d2)
    kernel = build_rbf_kernel(x, BandwidthConfig(sigma2, s), sq_dists=d2)
    spectral = eigendecompose(kernel)
    return KernelArtifacts(x, d2, sigma2, kernel, spectral, spectral.log_det_plus_identity())


@dataclass
class EnsembleResult:
    """Partitions plus per-run diagnostics, ordered by run index."""

    partitions: list[Partition]
    subset_sizes: np.ndarray
    log_likelihoods: np.ndarray


def _one_draw(run_idx, artifacts: KernelArtifacts, method, seed, k_max):
    """Draw run ``run_idx``'s generators and their log-likelihood.  Only the
    draw reads the run's stream, so skipping the partition moves no draw."""
    stream = RngStream(seed, run_idx)
    if method == "dpp":
        gens = sample_dpp(artifacts.spectral, stream)
    elif method == "uniform":
        gens = sample_uniform(artifacts.n, BaselineConfig(k_max), stream)
    else:  # kmeans: uniform size draw, k-means++ seeding
        g = stream.generator
        k = int(g.integers(2, k_max + 1))
        gens = GeneratorSet(kmeanspp_indices(artifacts.data, k, g), "kmeanspp")
    return gens, dpp_log_likelihood(artifacts.kernel, gens, log_det_norm=artifacts.log_det_norm)


def _one_run(run_idx, artifacts: KernelArtifacts, method, seed, k_max):
    gens, loglik = _one_draw(run_idx, artifacts, method, seed, k_max)
    data = artifacts.data
    if method == "kmeans":  # Lloyd refinement from the k-means++ seeds
        part = lloyd_kmeans(data, data[list(gens.indices)])
    else:
        part = voronoi_assign(data, gens, sq_dists=artifacts.sq_dists)
    return part.labels, part.k, len(gens), loglik


_WORKER_TASK = None


def _init_worker(task):
    global _WORKER_TASK
    _WORKER_TASK = task


def _run_by_index(run_idx):
    fn, payload = _WORKER_TASK
    return fn(run_idx, *payload)


def _map_runs(fn, artifacts: KernelArtifacts, cfg: PipelineConfig) -> list:
    """``fn(r, *payload)`` for every run r, serially or on a process pool,
    in run order.  The pool's initializer sends the payload once per
    worker."""
    runs = cfg.consensus.runs
    n = artifacts.n
    k_max = cfg.k_max if cfg.k_max is not None else default_k_max(n)
    if k_max > n:
        raise ConfigError(f"k_max={k_max} exceeds n={n}")
    payload = (artifacts, cfg.method, cfg.seed, k_max)
    if cfg.workers <= 1:
        return [fn(r, *payload) for r in range(runs)]
    chunk = max(1, runs // (cfg.workers * 4))
    with ProcessPoolExecutor(
        max_workers=cfg.workers, initializer=_init_worker, initargs=((fn, payload),)
    ) as pool:
        return list(pool.map(_run_by_index, range(runs), chunksize=chunk))


def ensemble_runs(artifacts: KernelArtifacts, cfg: PipelineConfig) -> EnsembleResult:
    """Execute R independent partition runs over the shared artifacts."""
    results = _map_runs(_one_run, artifacts, cfg)
    partitions = [Partition(lab, k) for lab, k, _, _ in results]
    sizes = np.array([r[2] for r in results], dtype=np.int64)
    logliks = np.array([r[3] for r in results], dtype=float)
    return EnsembleResult(partitions, sizes, logliks)


def _ensemble_draws(
    artifacts: KernelArtifacts, cfg: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Subset sizes and log-likelihoods of the R runs, equal to those of
    ``ensemble_runs``, without building the partitions."""
    results = _map_runs(_one_draw, artifacts, cfg)
    sizes = np.array([len(gens) for gens, _ in results], dtype=np.int64)
    logliks = np.array([ll for _, ll in results], dtype=float)
    return sizes, logliks


def select_clustering(
    kernel, consensus_matrix: ConsensusMatrix, cfg: ConsensusConfig
) -> SelectionResult:
    """Thresholds -> merged candidates -> index-based choice.

    The candidates' scatter statistics come from one pass over blocks of
    kernel rows (``scatter_reports``), so a ``KernelMatrix`` is never
    materialised.
    """
    cands = candidate_clusterings(consensus_matrix, cfg)
    return kvi(zip(cands, scatter_reports(kernel, cands)))


@dataclass
class RunReport:
    """Everything run_pipeline produced, JSON-serializable.

    ``timings`` are wall-clock seconds per stage; they are excluded from the
    serialized report by default so reports from identical (data, config)
    pairs compare byte-for-byte.
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

    def to_dict(self, include_timings: bool = False) -> dict:
        def num(v):
            if v is None:
                return None
            v = float(v)
            return v if np.isfinite(v) else None

        out = {
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
        if include_timings:
            out["timings"] = {k: float(v) for k, v in self.timings.items()}
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_dict(include_timings), indent=2, sort_keys=True)


def run_pipeline(data, cfg: PipelineConfig, truth: Sequence[int] | None = None) -> RunReport:
    """Cluster one dataset end to end under ``cfg``.

    Builds the kernel and its decomposition once, runs R sampling+partition
    rounds, accumulates the consensus matrix, extracts candidates over the
    threshold grid, picks the index-minimizing clustering, and scores it
    against ``truth`` when labels are supplied.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    artifacts = build_artifacts(data, s=cfg.s, preprocessing=cfg.preprocessing)
    timings["kernel"] = time.perf_counter() - t0
    n = artifacts.n

    t0 = time.perf_counter()
    ens = ensemble_runs(artifacts, cfg)
    timings["runs"] = time.perf_counter() - t0
    # nothing after the runs reads the eigenvectors: free them before the
    # consensus matrix is built; selection streams kernel rows from the
    # distances the kernel holds
    kernel, sigma2_hat = artifacts.kernel, artifacts.sigma2_hat
    del artifacts

    t0 = time.perf_counter()
    consensus_matrix = accumulate(ens.partitions, n)
    timings["consensus"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    selection = select_clustering(kernel, consensus_matrix, cfg.consensus)
    timings["selection"] = time.perf_counter() - t0

    chosen: Clustering = selection.chosen
    ari_val = rn_val = rn_abs_val = None
    k_true = None
    if truth is not None:
        truth_arr = np.asarray(truth)
        ari_val = ari(chosen.labels, truth_arr)
        k_true = int(np.unique(truth_arr).size)
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
        subset_sizes=ens.subset_sizes,
        log_likelihoods=ens.log_likelihoods,
        consensus=consensus_matrix,
        timings=timings,
    )
