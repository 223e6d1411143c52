"""One timed call of a workload in a fresh process.

Started by ``run.py``, which notes the time just before starting it; this
process prints the monotonic time at which it was ready to call (imports and
inputs loaded), so the parent can compute set-up time.  The last stdout line
is one JSON object with the call's wall time, peak RSS, checks and, with
``--trace``, its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def main() -> None:
    workloads.pin_threads()
    dc = workloads.import_program()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--runs", type=int, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--trace-out", type=Path, help="trace the call and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    work = workloads.WORKLOADS[args.workload]
    inp = workloads.load_inputs(args.inputs)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return

    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer(dc)
        tracer.install()
    error = None
    start = time.perf_counter()
    try:
        output = work.call(dc, inp, args.seed, args.runs)
    except dc.ClusterError as exc:
        output, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if error is None:
        outcome = work.check(output, inp, args.runs)
    else:
        outcome = workloads.Outcome()
        outcome.failed = outcome.attempted
        outcome.check("call completes", False, error)
    result = {"ready": ready, "wall_s": wall, "peak_rss_mb": peak_mb, **outcome.to_dict()}
    if tracer:
        tracer.write(args.trace_out)
        result["layers"] = tracer.metrics()
        result["trace_root_s"] = tracer.root_seconds()
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
