"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function at every
``dppcluster`` module attribute that refers to it (for example the
``sample_dpp`` that ``pipeline`` imported), so calls are timed where they
are made without changing the program.  Spans (name, start, end, parent)
stay in memory until the call ends; self time is a span's duration minus
the durations of its direct children, so the self times of all spans add up
to the duration of the root span.

Counters are read from the arguments and results of the wrapped calls.
Work done inside process-pool workers is not traced: it shows as self time
of ``pipeline.ensemble_runs``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pickle
import sys
import time
from collections import defaultdict

import numpy as np

SPANS = (
    "pipeline.run_pipeline",
    "pipeline.build_artifacts",
    "pipeline.ensemble_runs",
    "pipeline.select_clustering",
    "kernel.pairwise_sq_dists",
    "kernel.estimate_bandwidth",
    "kernel.build_rbf_kernel",
    "kernel.eigendecompose",
    "sampling.sample_dpp",
    "sampling.sample_uniform",
    "sampling.kmeanspp_indices",
    "sampling.dpp_log_likelihood",
    "partition.voronoi_assign",
    "partition.lloyd_kmeans",
    "consensus.accumulate",
    "consensus.candidate_clusterings",
    "consensus.threshold_components",
    "consensus.merge_small",
    "metrics.ari",
    "validation.scatter",
    "validation.kvi",
    "bench.benchmark",
    "bench.diversity_series",
    "bench.prefix_selection",
)

# Spans called once per partition run, which also get per-call percentiles.
PER_CALL = ("sampling.sample_dpp", "partition.voronoi_assign", "sampling.dpp_log_likelihood")

# Eigenvalues above this count towards the kernel's effective rank.
RANK_TOL = 1e-3

COUNTERS = {
    "kernel.effective_rank": "count",
    "kernel.expected_subset_size": "points",
    "kernel.dense_bytes": "bytes_computed",
    "sampling.mean_subset_size": "points",
    "consensus.components": "count",
    "consensus.singletons": "count",
    "consensus.merges": "count",
    "consensus.candidates_kept": "count",
    "consensus.candidates_duplicate": "count",
    "validation.candidates_excluded": "count",
    "pipeline.payload_bytes": "bytes_computed",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run emits, with its unit."""
    units = {}
    for span in SPANS:
        units[f"{span}.self_s"] = "s"
        units[f"{span}.calls"] = "count"
    for span in PER_CALL:
        units[f"{span}.p50_ms"] = "ms"
        units[f"{span}.p95_ms"] = "ms"
    units.update(COUNTERS)
    return units


def _n_labels(labels) -> int:
    return int(np.unique(np.asarray(getattr(labels, "labels", labels))).size)


# Facts kept per call of a span, from its bound arguments and its result.
# They must be cheap: they run inside the caller's span.
HOOKS = {
    "kernel.pairwise_sq_dists": lambda a, r: r.shape[0],
    "kernel.eigendecompose": lambda a, r: (
        int((r.eigenvalues > RANK_TOL).sum()),
        float((r.eigenvalues / (1.0 + r.eigenvalues)).sum()),
    ),
    "sampling.sample_dpp": lambda a, r: len(r),
    "consensus.threshold_components": lambda a, r: (
        r.k,
        int((np.bincount(r.labels) == 1).sum()),
    ),
    "consensus.merge_small": lambda a, r: (_n_labels(a["components"]) - r.k, r.k > 1),
    "consensus.candidate_clusterings": lambda a, r: len(r),
    "validation.kvi": lambda a, r: sum(s.excluded for s in r.scores),
    # Keep references only; the payload is pickled after the call ends.
    "pipeline.ensemble_runs": lambda a, r: (
        (a["artifacts"], a["cfg"], a.get("method")) if a["cfg"].workers > 1 else None
    ),
}


def pool_payload_bytes(artifacts, cfg, method) -> int:
    """Size of the payload ``ensemble_runs`` hands each pool worker,
    rebuilt as that function builds it."""
    from dppcluster.sampling import default_k_max

    n = artifacts.n
    payload = (
        method or cfg.method,
        cfg.seed,
        n,
        cfg.k_max if cfg.k_max is not None else default_k_max(n),
        artifacts.data,
        artifacts.sq_dists,
        artifacts.spectral,
        artifacts.kernel,
        artifacts.log_det_norm,
    )
    return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


class Tracer:
    """Wraps the traced functions of a ``dppcluster`` package and records
    one span per call."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.facts: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        spans, stack, facts = self.spans, self._stack, self.facts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook:
                facts[name].append(hook(sig.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        modules = [self.package] + [
            m for name, m in list(sys.modules.items()) if name.startswith(prefix)
        ]
        for span in SPANS:
            module, func = span.split(".")
            original = getattr(importlib.import_module(prefix + module), func)
            wrapper = self._wrap(span, original)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is original]:
                    self._patched.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(end - start) - child[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent is None)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, every one present (zero for layers not called).
        ``trace.overhead_s`` is left to the caller, which knows the
        untraced wall time."""
        out: dict[str, float] = {}
        selfs = self.self_times()
        durations = defaultdict(list)
        for (name, start, end, _), s in zip(self.spans, selfs):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + s
            durations[name].append(end - start)
        for span in SPANS:
            out.setdefault(f"{span}.self_s", 0.0)
            out[f"{span}.calls"] = len(durations[span])
        for span in PER_CALL:
            ms = np.asarray(durations[span]) * 1e3
            out[f"{span}.p50_ms"] = float(np.percentile(ms, 50)) if ms.size else 0.0
            out[f"{span}.p95_ms"] = float(np.percentile(ms, 95)) if ms.size else 0.0

        f = self.facts
        eig = f["kernel.eigendecompose"]
        n = f["kernel.pairwise_sq_dists"][-1] if f["kernel.pairwise_sq_dists"] else 0
        sizes = f["sampling.sample_dpp"]
        comps = f["consensus.threshold_components"]
        merges = f["consensus.merge_small"]
        kept = sum(f["consensus.candidate_clusterings"])
        out["kernel.effective_rank"] = eig[-1][0] if eig else 0
        out["kernel.expected_subset_size"] = eig[-1][1] if eig else 0.0
        # distances, kernel and eigenvectors: three dense float64 n x n arrays
        out["kernel.dense_bytes"] = 3 * 8 * n * n
        out["sampling.mean_subset_size"] = float(np.mean(sizes)) if sizes else 0.0
        out["consensus.components"] = sum(k for k, _ in comps)
        out["consensus.singletons"] = sum(s for _, s in comps)
        out["consensus.merges"] = sum(m for m, _ in merges)
        out["consensus.candidates_kept"] = kept
        out["consensus.candidates_duplicate"] = sum(nontrivial for _, nontrivial in merges) - kept
        out["validation.candidates_excluded"] = sum(f["validation.kvi"])
        out["pipeline.payload_bytes"] = sum(
            pool_payload_bytes(*refs) for refs in f["pipeline.ensemble_runs"] if refs
        )
        return out

    def write(self, path) -> None:
        selfs = self.self_times()
        doc = {
            "root_s": self.root_seconds(),
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent, "self_s": s}
                for (name, start, end, parent), s in zip(self.spans, selfs)
            ],
        }
        path.write_text(json.dumps(doc))
