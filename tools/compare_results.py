"""Compare the results of two ``dppcluster`` source trees over a fixed case list.

    python tools/compare_results.py run SRC OUT.json
    python tools/compare_results.py diff OLD.json NEW.json

``run`` imports the package from SRC (the directory that holds
``dppcluster/``, usually a checkout's ``src``) in a fresh process with one
BLAS thread, runs every case and writes one JSON record per case.  ``diff``
prints one line per case and a summary: whether the chosen labels are
equal; K, threshold, ARI and |RN| (``old>new`` where they differ); the
largest relative change in any candidate float or in the selection's
``alpha``; and whether the report digest moved.  For the ``run_pipeline``
cases it also compares a digest of the consensus matrix,
``report.consensus.entries`` as float64 bytes.  For the ``bench.benchmark``
cells it prints K, ARI and whether the cell moved.  It reports, per
dataset, the share of DPP draws that are identical, the change in E|Y|
against trace R = trace L - sum(lambda), and whether the bandwidth
estimate ``sigma2_hat`` (kept as ``float.hex``; how many ulps, when it
moved), the eigenvalues or the eigenvectors moved; each of the last two is
a sha256 of its float64 bytes in C order, so a change of layout alone
moves neither.  Like diff(1), ``diff`` exits 1 when any case's labels,
report digest or consensus digest, any benchmark cell, or any dataset's
``sigma2_hat``, eigenvalues or eigenvectors moved, and 0 when none did.

Cases:
- ``iris``: ``run_pipeline`` on ``tests/data/iris.csv`` with the defaults;
- ``n1500/seed<s>``: ``run_pipeline`` on ``n1500-pmedium-kmedium``, seeds 0-9;
- ``n500/<method>/seed<s>/R<r>``: consensus over the first r runs of
  ``n500-pmedium-kmedium``, r in 10/50/100/200, for ``dpp``, ``uniform``
  and ``kmeans``, seeds 0-9, selected by ``bench.prefix_consensus`` as
  ``bench.benchmark`` does;
- ``bench/n500/<method>/seed<s>``: one ``bench.benchmark`` call per seed
  0-9 on the same dataset with methods ``dpp``, ``uniform`` and
  ``kmeans`` and 2 workers, so its process pool runs the run blocks and the
  prefix selections; each cell keeps its trajectory, K and ARI.

Both simulated datasets come from the stream (0, (0, 0)), the one the
benchmark draws them from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IRIS = ROOT / "tests" / "data"
SEEDS = range(10)
CHECKPOINTS = (10, 50, 100, 200)
METHODS = ("dpp", "uniform", "kmeans")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CANDIDATE_FLOATS = ("threshold", "w_v", "b_tilde", "sr", "kvi")
BENCH_WORKERS = 2


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _num(v):
    return None if v is None or not math.isfinite(float(v)) else float(v)


# ---------------------------------------------------------------- collect


def _spectrum(artifacts) -> dict:
    """Facts of one dataset's decomposition the diff compares."""
    import numpy as np

    lam, vec = artifacts.spectral.eigenvalues, artifacts.spectral.eigenvectors
    every = np.arange(artifacts.n)
    trace = artifacts.kernel[every, every].sum()  # the diagonal only, not the n x n kernel

    def digest(values):
        return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()

    return {
        "n": artifacts.n,
        "rank": int(vec.shape[1]),
        "expected_size": float((lam / (1.0 + lam)).sum()),
        "trace_residual": float(trace - lam.sum()),
        "log_det_norm": float(artifacts.log_det_norm),
        "sigma2_hat": float(artifacts.sigma2_hat).hex(),
        "eigenvalues_sha256": digest(lam),
        "eigenvectors_sha256": digest(vec),
    }


def _draws(dc, artifacts, seed: int, runs: int) -> list[list[int]]:
    """The DPP generator sets of runs 0..runs-1, drawn as the pipeline does:
    in its fixed blocks of runs, or one run at a time in a tree from before
    the lockstep sampler."""
    sample_block = getattr(dc.sampling, "sample_dpp_block", None)
    if sample_block is None:
        return [
            list(dc.sample_dpp(artifacts.spectral, dc.RngStream(seed, r)).indices)
            for r in range(runs)
        ]
    step = dc.pipeline.RUN_BLOCK
    return [
        list(gens.indices)
        for top in range(0, runs, step)
        for gens in sample_block(
            artifacts.spectral, [dc.RngStream(seed, r) for r in range(top, min(top + step, runs))]
        )
    ]


def _case(labels, k, threshold, ari, rn_abs, alpha, candidates, report_sha=None) -> dict:
    out = {
        "labels_sha256": _sha256(json.dumps([int(v) for v in labels])),
        "k": int(k),
        "threshold": _num(threshold),
        "ari": _num(ari),
        "rn_abs": _num(rn_abs),
        "alpha": _num(alpha),
        "candidates": [
            {"k": c.k, "excluded": c.excluded,
             **{f: _num(getattr(c, f)) for f in CANDIDATE_FLOATS}}
            for c in candidates
        ],
    }
    out["report_sha256"] = report_sha or _sha256(json.dumps(out, sort_keys=True))
    return out


def _pipeline_case(dc, x, truth, seed: int) -> dict:
    import numpy as np

    report = dc.run_pipeline(x, dc.PipelineConfig(seed=seed), truth=truth)
    out = _case(report.labels, report.k_hat, report.threshold, report.ari, report.rn_abs,
                report.alpha, report.candidates, _sha256(report.to_json()))
    out["log_likelihoods"] = [_num(v) for v in report.log_likelihoods]
    entries = np.ascontiguousarray(report.consensus.entries, dtype=np.float64)
    out["consensus_sha256"] = hashlib.sha256(entries.tobytes()).hexdigest()
    return out


def _prefix_case(dc, artifacts, partitions, cfg, truth, k_true: int) -> dict:
    labels, k, sel = dc.bench.prefix_consensus(artifacts, partitions, cfg)
    threshold, alpha, scores = (
        (None, None, ()) if sel is None else (sel.chosen.threshold, sel.alpha, sel.scores)
    )
    return _case(labels, k, threshold, dc.ari(labels, truth), abs(dc.rn(k, k_true)), alpha,
                 scores)


def _benchmark_cells(dc, ds, seed: int) -> dict:
    """The cells of one ``bench.benchmark`` call on ``ds``, by method."""
    spec = dc.simgen.parse_scenario_id("n500-pmedium-kmedium")
    cfg = dc.PipelineConfig(seed=seed, workers=BENCH_WORKERS)
    result = dc.bench.benchmark([spec], METHODS, cfg, replicas=1,
                                generator=lambda _spec, _stream: ds)
    return {
        o.method: {"k": o.k_hat, "ari": _num(o.ari), "error": o.error,
                   "trajectory": {str(r): _num(v) for r, v in sorted(o.trajectory.items())}}
        for o in result.outcomes
    }


def collect() -> dict:
    import numpy as np

    import dppcluster as dc
    from dppcluster.io import read_data_csv, read_labels_csv

    result = {"datasets": {}, "draws": {}, "cases": {}, "benchmark": {}}

    x = read_data_csv(IRIS / "iris.csv")
    truth = read_labels_csv(IRIS / "iris_labels.csv")
    arts = dc.build_artifacts(x)
    result["datasets"]["iris"] = _spectrum(arts)
    result["draws"]["iris/seed0"] = _draws(dc, arts, 0, 200)
    result["cases"]["iris"] = _pipeline_case(dc, x, truth, 0)

    def dataset(scenario):
        spec = dc.simgen.parse_scenario_id(scenario)
        return dc.simgen.generate_mixture(spec, dc.RngStream(0, (0, 0)))

    ds = dataset("n1500-pmedium-kmedium")
    arts = dc.build_artifacts(ds.data)
    result["datasets"]["n1500"] = _spectrum(arts)
    for seed in SEEDS:
        result["draws"][f"n1500/seed{seed}"] = _draws(dc, arts, seed, 200)
        result["cases"][f"n1500/seed{seed}"] = _pipeline_case(dc, ds.data, ds.true_labels, seed)
    del arts

    ds = dataset("n500-pmedium-kmedium")
    arts = dc.build_artifacts(ds.data)
    result["datasets"]["n500"] = _spectrum(arts)
    k_true = int(np.unique(ds.true_labels).size)
    for method in METHODS:
        for seed in SEEDS:
            cfg = dc.PipelineConfig(method=method, seed=seed)
            ens = dc.ensemble_runs(arts, cfg)
            if method == "dpp":
                result["draws"][f"n500/seed{seed}"] = _draws(dc, arts, seed, cfg.consensus.runs)
            for r in CHECKPOINTS:
                result["cases"][f"n500/{method}/seed{seed}/R{r}"] = _prefix_case(
                    dc, arts, ens.partitions[:r], cfg, ds.true_labels, k_true
                )
    del arts
    for seed in SEEDS:
        for method, cell in _benchmark_cells(dc, ds, seed).items():
            result["benchmark"][f"bench/n500/{method}/seed{seed}"] = cell
    return result


def run(src: Path, out: Path) -> None:
    """Collect in a fresh process that imports the package from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    env.update({var: "1" for var in THREAD_VARS})
    subprocess.run([sys.executable, __file__, "_collect", str(src), str(out)], env=env, check=True)


# ---------------------------------------------------------------- diff


def _rel(a, b) -> float:
    if a == b:
        return 0.0
    if a is None or b is None:
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def max_candidate_change(old: list[dict], new: list[dict]) -> float:
    """Largest relative change of any candidate float; inf when the tables
    differ in length, K or exclusion (printed as ``table``)."""
    if len(old) != len(new):
        return math.inf
    worst = 0.0
    for a, b in zip(old, new):
        if (a["k"], a["excluded"]) != (b["k"], b["excluded"]):
            return math.inf
        worst = max([worst, *(_rel(a[f], b[f]) for f in CANDIDATE_FLOATS)])
    return worst


def max_case_change(old: dict, new: dict) -> float:
    """``max_candidate_change`` of two records of one case, or the relative
    change of their ``alpha`` when that is larger; a record without
    ``alpha`` counts as None."""
    return max(max_candidate_change(old["candidates"], new["candidates"]),
               _rel(old.get("alpha"), new.get("alpha")))


def _change(rel: float) -> str:
    return "table" if math.isinf(rel) else f"{rel:.2g}"


def _cell(a, b) -> str:
    return f"{a}" if a == b else f"{a}>{b}"


def moved_cells(old: dict, new: dict) -> list[str]:
    """The ``bench.benchmark`` cells whose record differs; a record from
    before the cells were kept has none."""
    new_cells = new.get("benchmark", {})
    return [name for name, a in old.get("benchmark", {}).items() if a != new_cells.get(name)]


DATASET_KEYS = ("sigma2_hat", "eigenvalues_sha256", "eigenvectors_sha256")


def moved_datasets(old: dict, new: dict) -> list[str]:
    """``dataset:key`` for each dataset whose ``sigma2_hat``, eigenvalue
    digest or eigenvector digest differs; a record from before they were
    kept has none."""
    return [
        f"{name}:{key}"
        for name, a in old["datasets"].items()
        for key in DATASET_KEYS
        if key in a and a[key] != new["datasets"].get(name, {}).get(key)
    ]


def ulps_apart(old_hex: str, new_hex: str) -> int:
    """How many floats apart two ``float.hex`` values of one sign lie."""
    old, new = (struct.unpack("<q", struct.pack("<d", float.fromhex(v)))[0]
                for v in (old_hex, new_hex))
    return abs(new - old)


def any_case_moved(old: dict, new: dict) -> bool:
    """Whether any case's chosen labels, report digest or consensus digest
    differ, any benchmark cell moved, or any dataset's ``sigma2_hat``,
    eigenvalues or eigenvectors moved; only the ``run_pipeline`` cases
    carry a consensus digest."""
    return bool(moved_cells(old, new)) or bool(moved_datasets(old, new)) or any(
        a.get(key) != new["cases"][name].get(key)
        for name, a in old["cases"].items()
        for key in ("labels_sha256", "report_sha256", "consensus_sha256")
    )


def diff(old: dict, new: dict) -> list[str]:
    """One line per case, then the dataset and draw summaries."""
    lines = [f"{'case':<26} {'labels':<7} {'K':<6} {'threshold':<10} {'ARI':<22} "
             f"{'|RN|':<12} {'max_rel':<9} digest"]
    moved, consensus_moved, same_labels = [], [], 0
    for name, a in old["cases"].items():
        b = new["cases"][name]
        labels_equal = a["labels_sha256"] == b["labels_sha256"]
        same_labels += labels_equal
        if a["report_sha256"] != b["report_sha256"]:
            moved.append(name)
        if a.get("consensus_sha256") != b.get("consensus_sha256"):
            consensus_moved.append(name)
        lines.append(
            f"{name:<26} {'same' if labels_equal else 'DIFF':<7} {_cell(a['k'], b['k']):<6} "
            f"{_cell(a['threshold'], b['threshold']):<10} {_cell(a['ari'], b['ari']):<22} "
            f"{_cell(a['rn_abs'], b['rn_abs']):<12} "
            f"{_change(max_case_change(a, b)):<9} "
            f"{'same' if name not in moved else 'moved'}"
        )
        if "log_likelihoods" in a:
            dll = [abs(x - y) for x, y in zip(a["log_likelihoods"], b["log_likelihoods"])
                   if x is not None and y is not None]
            lines[-1] += f"  max|dloglik| {max(dll, default=0.0):.2g}"
    cells_moved = moved_cells(old, new)
    for name, a in old.get("benchmark", {}).items():
        b = new.get("benchmark", {}).get(name, {})
        lines.append(
            f"{name:<26} {'':<7} {_cell(a['k'], b.get('k')):<6} {'':<10} "
            f"{_cell(a['ari'], b.get('ari')):<22} {'':<12} {'':<9} "
            f"{'moved' if name in cells_moved else 'same'}"
        )
    lines.append(f"chosen labels identical in {same_labels} of {len(old['cases'])} cases")
    lines.append(f"report digests moved ({len(moved)}): {', '.join(moved) or 'none'}")
    lines.append(f"consensus digests moved ({len(consensus_moved)}): "
                 f"{', '.join(consensus_moved) or 'none'}")
    lines.append(f"benchmark cells moved ({len(cells_moved)}): {', '.join(cells_moved) or 'none'}")
    datasets_moved = moved_datasets(old, new)
    for name, a in old["datasets"].items():
        b = new["datasets"][name]
        lines.append(
            f"dataset {name}: rank {a['rank']}>{b['rank']} of n={a['n']}, "
            f"E|Y| {a['expected_size']:.6f}>{b['expected_size']:.6f} "
            f"(|d| {abs(a['expected_size'] - b['expected_size']):.2e}), "
            f"trace R {a['trace_residual']:.2e}>{b['trace_residual']:.2e}, "
            f"log det(L+I) {a['log_det_norm']:.6f}>{b['log_det_norm']:.6f}"
        )
        for key in DATASET_KEYS:
            if key in a:
                moved_key = f"{name}:{key}" in datasets_moved
                lines[-1] += f", {key} {'moved' if moved_key else 'same'}"
                if moved_key and key == "sigma2_hat" and key in b:
                    lines[-1] += f" {ulps_apart(a[key], b[key])} ulp"
    lines.append(f"datasets moved ({len(datasets_moved)}): {', '.join(datasets_moved) or 'none'}")
    per_dataset: dict[str, list[int]] = {}
    for key, draws in old["draws"].items():
        same = sum(x == y for x, y in zip(draws, new["draws"][key]))
        tally = per_dataset.setdefault(key.split("/")[0], [0, 0])
        tally[0] += same
        tally[1] += len(draws)
    for name, (same, total) in per_dataset.items():
        lines.append(f"dpp draws identical on {name}: {same} of {total}")
    return lines


def main(argv: list[str]) -> int:
    """Run a command; the exit status is 1 when ``diff`` saw a case, a
    benchmark cell or a dataset's bandwidth, eigenvalues or eigenvectors
    move."""
    if len(argv) == 3 and argv[0] == "run":
        run(Path(argv[1]), Path(argv[2]))
    elif len(argv) == 3 and argv[0] == "_collect":
        import dppcluster

        src = Path(argv[1]).resolve()
        if not Path(dppcluster.__file__).resolve().is_relative_to(src):
            raise SystemExit(f"imported dppcluster from {dppcluster.__file__}, not {src}")
        Path(argv[2]).write_text(json.dumps(collect(), indent=1))
    elif len(argv) == 3 and argv[0] == "diff":
        old, new = (json.loads(Path(p).read_text()) for p in argv[1:])
        print("\n".join(diff(old, new)))
        return int(any_case_moved(old, new))
    else:
        raise SystemExit(__doc__)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
