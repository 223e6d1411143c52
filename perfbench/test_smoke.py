"""Smoke test of the benchmark on the iris data with R = 10, so each run
takes seconds.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
IRIS = [
    "--data-csv", "tests/data/iris.csv",
    "--labels-csv", "tests/data/iris_labels.csv",
    "--runs", "10",
]
ROOT_SPAN = {
    "cluster-dpp-n1500": "pipeline.run_pipeline",
    "diversity-n1500": "bench.diversity_series",
    "sweep-n500": "bench.benchmark",
}


def bench(args, cwd=ROOT):
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_emits_every_metric(workload, trace):
    proc = bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), *IRIS])
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    info, result = json.loads(info_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1

    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in listed}
    if not trace:
        assert all(v["value"] > 0 for v in metrics.values())
        return

    assert metrics[f"{ROOT_SPAN[workload]}.calls"]["value"] == 1
    self_sum = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(info["trace_root_s"], rel=1e-9)
    assert info["trace_root_s"] == pytest.approx(info["traced_wall_s"], rel=0.05, abs=0.005)
    spans = json.loads((ROOT / info["trace_file"]).read_text())
    assert sum(s["self_s"] for s in spans["spans"]) == pytest.approx(spans["root_s"], rel=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "sweep-n500", "--seed", "0", "--seconds", "1", "--trace", "0"],
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
