"""Benchmark of the determinantal consensus clustering pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed call of the workload's public ``dppcluster`` function runs in a
fresh process (``call.py``); calls repeat until ``--seconds`` have passed.
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over the calls); with ``--trace 1`` it carries the per-layer
metrics of one traced call, made after the untraced ones.  The line before
it holds the provenance, sample counts, quality figures and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
# Stop starting calls once another could end after this many seconds; a run
# must exit within 180 s.
BUDGET_S = 150.0
# Set-up is measured in every call process, and in set-up-only processes
# until there are this many samples.
SETUP_SAMPLES = 5
POOL_NOTE = ("calls made inside process-pool workers are not traced; their time "
             "falls inside pipeline.ensemble_runs.self_s")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def spawn(args, inputs: Path, extra: list[str], timeout: float) -> dict:
    """Run call.py once and return its result, with ``setup_s`` measured from
    just before the process started until it was ready to call."""
    cmd = [
        sys.executable, str(HERE / "call.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--runs", str(args.runs), "--inputs", str(inputs), *extra,
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:
        # The call's process group includes any pool workers it started.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"perfbench: call did not finish within {timeout:.0f} s") from None
        raise
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: call process exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - start
    return result


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in workloads.THREAD_VARS},
        "sweep_workers": workloads.sweep_workers(),
        "commit": workloads.git_commit(),
        "src_sha256": workloads.source_digest(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=workloads.RUNS,
                    help="partition runs R per call (smaller only for the smoke test)")
    ap.add_argument("--data-csv", help="use this dataset instead of the workload's scenario")
    ap.add_argument("--labels-csv", help="truth labels for --data-csv")
    args = ap.parse_args()
    if (args.data_csv is None) != (args.labels_csv is None):
        ap.error("--data-csv and --labels-csv go together")

    workloads.pin_threads()
    dc = workloads.import_program()
    work = WORKLOADS[args.workload]
    inputs = workloads.prepare_inputs(dc, work.scenario, args.data_csv, args.labels_csv)

    t0 = time.perf_counter()

    def remaining() -> float:
        return BUDGET_S - (time.perf_counter() - t0)

    calls = []
    while True:
        calls.append(spawn(args, inputs, [], remaining()))
        longest = max(c["setup_s"] + c["wall_s"] for c in calls)
        if time.perf_counter() - t0 >= args.seconds or longest > remaining():
            break
    traced = None
    if args.trace:
        trace_path = workloads.CACHE / f"trace-{args.workload}-seed{args.seed}.json"
        traced = spawn(args, inputs, ["--trace-out", str(trace_path)], remaining())
    setups = [c["setup_s"] for c in calls]
    while not args.trace and len(setups) < SETUP_SAMPLES and remaining() > 10.0:
        setups.append(spawn(args, inputs, ["--setup-only"], remaining())["setup_s"])

    done = calls + ([traced] if traced else [])
    checks = [c for d in done for c in d["checks"]]
    digests = {d["digest"] for d in done}
    checks.append({"name": "same output on every call", "ok": len(digests) == 1,
                   "detail": f"{len(digests)} distinct digests"})
    attempted = sum(d["attempted"] for d in done)
    failed = sum(d["failed"] for d in done)
    walls = [c["wall_s"] for c in calls]

    if args.trace:
        from tracing import metric_units

        units = metric_units()
        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
    else:
        units = E2E_UNITS
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in calls),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    for c in checks:
        print(f"check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}" +
              (f" ({c['detail']})" if c["detail"] else ""))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": args.data_csv or f"{work.scenario} from stream ({workloads.DATA_SEED}, (0, 0))",
        "runs": args.runs,
        "samples": {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": len(walls)},
        "wall_s_all": walls,
        "setup_s_all": setups,
        "quality": calls[0]["quality"],
        "failed_share": failed / attempted,
        "output_sha256": calls[0]["digest"],
        "env": environment(),
    }
    if traced:
        info.update(trace_file=str(trace_path.relative_to(ROOT)), traced_wall_s=traced["wall_s"],
                    trace_root_s=traced["trace_root_s"], note=POOL_NOTE)
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and all(c["ok"] for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
