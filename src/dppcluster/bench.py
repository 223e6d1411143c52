"""Benchmark harness: scenario sweeps, ARI-vs-runs trajectories, and
sampling-diversity series.

Replica failures (generation exhaustion, degenerate numerics) are recorded
per outcome rather than aborting the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .consensus import accumulate
from .errors import ClusterError, NoCandidates
from .metrics import ari, rn
from .pipeline import (
    KernelArtifacts,
    PipelineConfig,
    build_artifacts,
    _ensemble_draws,
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
    """Consensus over a prefix of the run list, then selection.

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
    for tests.
    """
    runs = cfg.consensus.runs
    marks = tuple(sorted({int(r) for r in checkpoints if int(r) <= runs}))
    outcomes: list[ReplicaOutcome] = []
    for s_idx, spec in enumerate(scenarios):
        n_reps = replicas if replicas is not None else spec.replicas
        for rep in range(n_reps):
            try:
                ds = generator(spec, RngStream(cfg.seed, (s_idx, rep)))
            except ClusterError as exc:
                for method in methods:
                    outcomes.append(
                        ReplicaOutcome(spec.scenario_id, method, rep, error=f"generation: {exc}")
                    )
                continue
            artifacts = build_artifacts(ds.data, s=cfg.s, preprocessing=cfg.preprocessing)
            truth = ds.true_labels
            for method in methods:
                out = ReplicaOutcome(
                    spec.scenario_id, method, rep, realized_p=ds.p, realized_k=ds.k
                )
                try:
                    mcfg = replace(cfg, method=method)
                    ens = ensemble_runs(artifacts, mcfg)
                    for r in sorted({*marks, runs}):
                        k_hat, full_ari = prefix_selection(
                            artifacts, ens.partitions[:r], mcfg, truth
                        )
                        if r in marks:
                            out.trajectory[r] = full_ari
                    out.k_hat = k_hat
                    out.ari = full_ari
                    out.rn_abs = abs(rn(max(k_hat, 1), ds.k))
                    out.subset_sizes = ens.subset_sizes
                    out.log_likelihoods = ens.log_likelihoods
                except ClusterError as exc:
                    out.error = str(exc)
                outcomes.append(out)
    return BenchmarkResult(outcomes, marks)


def diversity_series(data, cfg: PipelineConfig, methods: Sequence[str] = ("dpp", "uniform")):
    """Per-run subset log-likelihoods for each sampling method on one
    dataset; the rows behind the diversity histograms."""
    artifacts = build_artifacts(data, s=cfg.s, preprocessing=cfg.preprocessing)
    rows = []
    for method in methods:
        sizes, logliks = _ensemble_draws(artifacts, replace(cfg, method=method))
        for run, (ll, size) in enumerate(zip(logliks, sizes)):
            rows.append(
                {
                    "method": method,
                    "run": run,
                    "log_likelihood": float(ll),
                    "subset_size": int(size),
                }
            )
    return rows
