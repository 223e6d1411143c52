"""Benchmark harness: scenario sweeps, ARI-vs-runs trajectories, and
sampling-diversity series.

Replica failures (generation exhaustion, degenerate numerics) are recorded
per outcome rather than aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .consensus import accumulate
from .errors import ClusterError, ConfigError, NoCandidates, checked_int
from .metrics import ari, rn
from .pipeline import (
    METHODS,
    KernelArtifacts,
    PipelineConfig,
    artifacts_pool,
    build_artifacts,
    defer_tasks,
    ensemble_draws,
    ensemble_runs,
    select_clustering,
)
from .rng import RngStream
from .simgen import ScenarioSpec, generate_mixture

__all__ = [
    "DEFAULT_CHECKPOINTS",
    "ReplicaOutcome",
    "BenchmarkResult",
    "prefix_consensus",
    "prefix_selection",
    "benchmark",
    "diversity_series",
]

DEFAULT_CHECKPOINTS = (10, 50, 100, 200)


@dataclass
class ReplicaOutcome:
    """Results of one (scenario, method, replica) cell."""

    scenario: str
    method: str
    replica: int
    realized_p: int | None = None
    realized_k: int | None = None
    k_hat: int | None = None
    ari: float | None = None
    rn_abs: float | None = None
    trajectory: dict[int, float] = field(default_factory=dict)
    subset_sizes: np.ndarray | None = None
    log_likelihoods: np.ndarray | None = None
    error: str | None = None


@dataclass
class BenchmarkResult:
    """All replica outcomes plus tidy aggregations."""

    outcomes: list[ReplicaOutcome]
    checkpoints: tuple[int, ...]

    def summary_rows(self) -> list[dict]:
        """Per (scenario, method): mean/sd of ARI and |RN| over successful
        replicas, plus failure counts."""
        keys = sorted({(o.scenario, o.method) for o in self.outcomes})
        rows = []
        for scenario, method in keys:
            group = [o for o in self.outcomes if (o.scenario, o.method) == (scenario, method)]
            ok = [o for o in group if o.error is None]
            aris = np.array([o.ari for o in ok], dtype=float)
            rns = np.array([o.rn_abs for o in ok], dtype=float)
            rows.append(
                {
                    "scenario": scenario,
                    "method": method,
                    "replicas_ok": len(ok),
                    "replicas_failed": len(group) - len(ok),
                    "ari_mean": float(aris.mean()) if ok else None,
                    "ari_sd": float(aris.std(ddof=1)) if len(ok) > 1 else None,
                    "rn_abs_mean": float(rns.mean()) if ok else None,
                    "rn_abs_sd": float(rns.std(ddof=1)) if len(ok) > 1 else None,
                }
            )
        return rows

    def trajectory_rows(self) -> list[dict]:
        """Per (scenario, method, checkpoint): mean ARI over replicas."""
        keys = sorted({(o.scenario, o.method) for o in self.outcomes})
        rows = []
        for scenario, method in keys:
            ok = [
                o
                for o in self.outcomes
                if (o.scenario, o.method) == (scenario, method) and o.error is None
            ]
            for r in self.checkpoints:
                vals = [o.trajectory[r] for o in ok if r in o.trajectory]
                if vals:
                    rows.append(
                        {
                            "scenario": scenario,
                            "method": method,
                            "runs": r,
                            "ari_mean": float(np.mean(vals)),
                            "replicas": len(vals),
                        }
                    )
        return rows

    def histogram_rows(self) -> list[dict]:
        """Tidy per-run log-likelihood rows for external plotting."""
        rows = []
        for o in self.outcomes:
            if o.error is not None or o.log_likelihoods is None:
                continue
            for run, (ll, size) in enumerate(zip(o.log_likelihoods, o.subset_sizes)):
                rows.append(
                    {
                        "scenario": o.scenario,
                        "method": o.method,
                        "replica": o.replica,
                        "run": run,
                        "log_likelihood": float(ll),
                        "subset_size": int(size),
                    }
                )
        return rows


def prefix_consensus(
    artifacts: KernelArtifacts,
    partitions,
    cfg: PipelineConfig,
):
    """Consensus over the labels of a prefix of the runs, their first r
    rows, then selection.

    Returns ``(labels, k_hat, selection)``.  When every threshold collapses
    to one cluster the prefix is taken as the trivial single-cluster
    configuration and ``selection`` is None, so early checkpoints remain
    comparable.
    """
    n = artifacts.n
    consensus_matrix = accumulate(partitions, n)
    try:
        selection = select_clustering(artifacts.kernel, consensus_matrix, cfg.consensus)
    except NoCandidates:
        return np.zeros(n, dtype=np.int64), 1, None
    return selection.chosen.labels, selection.chosen.k, selection


def prefix_selection(
    artifacts: KernelArtifacts,
    partitions,
    cfg: PipelineConfig,
    truth: np.ndarray,
) -> tuple[int, float]:
    """``prefix_consensus`` scored against ``truth``: ``(k_hat, ARI)``.

    The trivial single-cluster configuration scores an ARI of 0 against any
    non-trivial truth.
    """
    labels, k_hat, _ = prefix_consensus(artifacts, partitions, cfg)
    return k_hat, float(ari(labels, truth))


def _prefix_task(partitions, artifacts: KernelArtifacts, cfg: PipelineConfig, truth):
    """``prefix_selection`` in the argument order of a pool task.  A task's
    function is pickled by its import path, so the pool gets this one even
    where ``prefix_selection`` has been wrapped."""
    return prefix_selection(artifacts, partitions, cfg, truth)


def _start_cell(artifacts: KernelArtifacts, cfg: PipelineConfig, prefixes, truth, pool):
    """One method's runs, then one deferred ``(k_hat, ARI)`` per prefix
    (``defer_tasks``).  Each prefix is the first r rows of the runs' label
    array, a view that a pool task receives as its own rows alone.  A
    ClusterError of the runs is returned in place of the ensemble."""
    try:
        ens = ensemble_runs(artifacts, cfg, pool)
    except ClusterError as exc:
        return exc, []
    partitions = [ens.partitions[:r] for r in prefixes]
    return ens, defer_tasks(pool, _prefix_task, partitions, artifacts, cfg, truth)


def _finish_cell(out: ReplicaOutcome, ens, scores, prefixes, marks) -> ReplicaOutcome:
    """Fill ``out`` from a started cell, in prefix order; the first
    ClusterError ends the cell and is recorded."""
    if isinstance(ens, ClusterError):
        out.error = str(ens)
        return out
    try:
        for r, score in zip(prefixes, scores):
            k_hat, full_ari = score()
            if r in marks:
                out.trajectory[r] = full_ari
    except ClusterError as exc:
        out.error = str(exc)
        return out
    out.k_hat = k_hat
    out.ari = full_ari
    out.rn_abs = abs(rn(max(k_hat, 1), out.realized_k))
    out.subset_sizes = ens.subset_sizes
    out.log_likelihoods = ens.log_likelihoods
    return out


def _checked_methods(methods: Sequence[str]) -> list[str]:
    """``methods`` as a list of one or more METHODS, none twice (ConfigError)."""
    methods = list(methods)
    if not methods or len(set(methods)) < len(methods) or not set(methods) <= set(METHODS):
        raise ConfigError(f"each method must be one of {METHODS}, named once; got {methods}")
    return methods


def benchmark(
    scenarios: Sequence[ScenarioSpec],
    methods: Sequence[str],
    cfg: PipelineConfig,
    replicas: int | None = None,
    checkpoints: Sequence[int] = DEFAULT_CHECKPOINTS,
    generator=generate_mixture,
) -> BenchmarkResult:
    """Run every (scenario, method, replica) cell and collect quality scores.

    Datasets are generated from streams keyed by (scenario index, replica),
    so each cell is reproducible in isolation.  ``generator`` is injectable
    for tests.  A ClusterError while generating a dataset or building its
    kernel is recorded on that replica's outcome for every method.

    With ``cfg.workers > 1`` each dataset gets one process pool, opened
    once its artifacts are built, that runs both the run blocks and the
    prefix selections: every method's runs go to the pool, then each
    prefix's selection as its own task, while the parent goes on to the
    next method's runs and collects the scores, in order, at the end.
    Outcomes are identical at every worker count; with one worker
    everything runs in this process.
    """
    methods = _checked_methods(methods)
    if replicas is not None:
        replicas = checked_int("replicas", replicas, 1)
    runs = cfg.consensus.runs
    checkpoints = [checked_int("checkpoint", r, 1) for r in checkpoints]
    marks = tuple(sorted({r for r in checkpoints if r <= runs}))
    prefixes = sorted({*marks, runs})
    outcomes: list[ReplicaOutcome] = []
    for s_idx, spec in enumerate(scenarios):
        n_reps = replicas if replicas is not None else spec.replicas
        for rep in range(n_reps):
            try:
                ds = generator(spec, RngStream(cfg.seed, (s_idx, rep)))
            except ClusterError as exc:
                outcomes += [
                    ReplicaOutcome(spec.scenario_id, method, rep, error=f"generation: {exc}")
                    for method in methods
                ]
                continue
            cell = dict(realized_p=ds.p, realized_k=ds.k)
            try:
                artifacts = build_artifacts(ds.data, s=cfg.s, preprocessing=cfg.preprocessing)
            except ClusterError as exc:
                outcomes += [
                    ReplicaOutcome(spec.scenario_id, method, rep, **cell, error=f"kernel: {exc}")
                    for method in methods
                ]
                continue
            with artifacts_pool(artifacts, cfg.workers) as pool:
                started = [
                    _start_cell(
                        artifacts, replace(cfg, method=method), prefixes, ds.true_labels, pool
                    )
                    for method in methods
                ]
                outcomes += [
                    _finish_cell(
                        ReplicaOutcome(spec.scenario_id, method, rep, **cell),
                        ens, scores, prefixes, marks,
                    )
                    for method, (ens, scores) in zip(methods, started)
                ]
    return BenchmarkResult(outcomes, marks)


def diversity_series(data, cfg: PipelineConfig, methods: Sequence[str] = ("dpp", "uniform")):
    """Per-run subset log-likelihoods for each sampling method on one
    dataset; the rows behind the diversity histograms.  With
    ``cfg.workers > 1`` one pool runs the draws of every method."""
    methods = _checked_methods(methods)
    artifacts = build_artifacts(data, s=cfg.s, preprocessing=cfg.preprocessing)
    rows = []
    with artifacts_pool(artifacts, cfg.workers) as pool:
        for method in methods:
            sizes, logliks = ensemble_draws(artifacts, replace(cfg, method=method), pool)
            rows += [
                {"method": method, "run": run, "log_likelihood": float(ll),
                 "subset_size": int(size)}
                for run, (ll, size) in enumerate(zip(logliks, sizes))
            ]
    return rows
