"""The diff side of ``tools/compare_results.py`` on hand-built records."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_results.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_results", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _candidate(k, kvi):
    return {"k": k, "excluded": False, "threshold": 0.6, "w_v": 0.2, "b_tilde": 3.0,
            "sr": 0.8, "kvi": kvi}


def _result(labels, kvi, draws, expected_size):
    case = {"labels_sha256": labels, "k": 2, "threshold": 0.6, "ari": 1.0, "rn_abs": 0.0,
            "candidates": [_candidate(2, kvi)], "report_sha256": f"{labels}{kvi}"}
    dataset = {"n": 10, "rank": 4, "expected_size": expected_size, "trace_residual": 1e-7,
               "log_det_norm": 3.0}
    return {"datasets": {"d": dataset}, "draws": {"d/seed0": draws}, "cases": {"c": case}}


def test_candidate_change(tool):
    a = [_candidate(2, 4.0)]
    assert tool.max_candidate_change(a, a) == 0.0
    assert tool.max_candidate_change(a, [_candidate(2, 5.0)]) == pytest.approx(0.2)
    assert math.isinf(tool.max_candidate_change(a, [_candidate(3, 4.0)]))
    assert math.isinf(tool.max_candidate_change(a, []))


def test_diff_reports_labels_digests_and_draws(tool):
    old = _result("aa", 4.0, [[1, 2], [3, 4]], 2.5)
    lines = tool.diff(old, old)
    assert "chosen labels identical in 1 of 1 cases" in lines
    assert "report digests moved (0): none" in lines
    assert "dpp draws identical on d: 2 of 2" in lines

    new = _result("bb", 5.0, [[1, 2], [4, 3]], 2.5)
    lines = tool.diff(old, new)
    assert "DIFF" in lines[1] and "0.2" in lines[1] and "moved" in lines[1]
    assert "chosen labels identical in 0 of 1 cases" in lines
    assert "report digests moved (1): c" in lines
    assert "dpp draws identical on d: 1 of 2" in lines


def test_diff_exit_status(tool, tmp_path, capsys):
    def status(old, new):
        (tmp_path / "old.json").write_text(json.dumps(old))
        (tmp_path / "new.json").write_text(json.dumps(new))
        return tool.main(["diff", str(tmp_path / "old.json"), str(tmp_path / "new.json")])

    old = _result("aa", 4.0, [[1, 2]], 2.5)
    assert status(old, old) == 0
    # draws and spectra may move without a case moving
    assert status(old, _result("aa", 4.0, [[2, 1]], 2.6)) == 0
    assert status(old, _result("bb", 4.0, [[1, 2]], 2.5)) == 1
    digest_only = _result("aa", 4.0, [[1, 2]], 2.5)
    digest_only["cases"]["c"]["report_sha256"] = "other"
    assert status(old, digest_only) == 1
    assert "report digests moved (1): c" in capsys.readouterr().out


def test_diff_names_moved_consensus(tool, tmp_path):
    old = _result("aa", 4.0, [[1, 2]], 2.5)
    old["cases"]["c"]["consensus_sha256"] = "x"
    assert "consensus digests moved (0): none" in tool.diff(old, old)
    new = json.loads(json.dumps(old))
    new["cases"]["c"]["consensus_sha256"] = "y"
    lines = tool.diff(old, new)
    assert "consensus digests moved (1): c" in lines
    assert "report digests moved (0): none" in lines
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    assert tool.main(["diff", str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 1
