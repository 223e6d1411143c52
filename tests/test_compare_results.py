"""The diff side of ``tools/compare_results.py`` on hand-built records."""

import hashlib
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


def _result(labels, kvi, draws, expected_size, alpha=3.0):
    case = {"labels_sha256": labels, "k": 2, "threshold": 0.6, "ari": 1.0, "rn_abs": 0.0,
            "alpha": alpha, "candidates": [_candidate(2, kvi)],
            "report_sha256": f"{labels}{kvi}{alpha}"}
    dataset = {"n": 10, "rank": 4, "expected_size": expected_size, "trace_residual": 1e-7,
               "log_det_norm": 3.0}
    return {"datasets": {"d": dataset}, "draws": {"d/seed0": draws}, "cases": {"c": case}}


def test_candidate_change(tool):
    a = [_candidate(2, 4.0)]
    assert tool.max_candidate_change(a, a) == 0.0
    assert tool.max_candidate_change(a, [_candidate(2, 5.0)]) == pytest.approx(0.2)
    assert math.isinf(tool.max_candidate_change(a, [_candidate(3, 4.0)]))
    assert math.isinf(tool.max_candidate_change(a, []))


def test_case_change_counts_alpha(tool):
    old = _result("aa", 4.0, [[1, 2]], 2.5)["cases"]["c"]
    assert tool.max_case_change(old, old) == 0.0
    new = _result("aa", 4.0, [[1, 2]], 2.5, alpha=2.0)["cases"]["c"]
    assert tool.max_case_change(old, new) == pytest.approx(1.0 / 3.0)
    new = _result("aa", 5.0, [[1, 2]], 2.5, alpha=2.9)["cases"]["c"]
    assert tool.max_case_change(old, new) == pytest.approx(0.2)
    # a record from before alpha was kept compares as None
    del old["alpha"]
    assert math.isinf(tool.max_case_change(old, new))
    assert "0.33" in tool.diff(_result("aa", 4.0, [], 2.5),
                               _result("aa", 4.0, [], 2.5, alpha=2.0))[1]


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


def test_diff_names_moved_bandwidth_and_spectrum(tool, tmp_path):
    old = _result("aa", 4.0, [[1, 2]], 2.5)
    old["datasets"]["d"].update(
        sigma2_hat=(1.5).hex(), eigenvalues_sha256="v", eigenvectors_sha256="w"
    )
    lines = tool.diff(old, old)
    assert "datasets moved (0): none" in lines
    assert any("sigma2_hat same, eigenvalues_sha256 same, eigenvectors_sha256 same" in line
               for line in lines)
    # a record from before they were kept has none to compare
    assert "datasets moved (0): none" in tool.diff(_result("aa", 4.0, [], 2.5), old)

    def status(new):
        (tmp_path / "old.json").write_text(json.dumps(old))
        (tmp_path / "new.json").write_text(json.dumps(new))
        return tool.main(["diff", str(tmp_path / "old.json"), str(tmp_path / "new.json")])

    assert status(old) == 0
    for key, value in (("sigma2_hat", (1.5000000000000002).hex()),
                       ("eigenvalues_sha256", "x"), ("eigenvectors_sha256", "x")):
        new = json.loads(json.dumps(old))
        new["datasets"]["d"][key] = value
        lines = tool.diff(old, new)
        assert f"datasets moved (1): d:{key}" in lines
        line = next(line for line in lines if line.startswith("dataset d:"))
        assert [f"{k} moved" in line for k in tool.DATASET_KEYS] == [
            k == key for k in tool.DATASET_KEYS
        ]
        assert "chosen labels identical in 1 of 1 cases" in lines
        assert status(new) == 1
    new = json.loads(json.dumps(old))
    new["datasets"]["d"]["sigma2_hat"] = (1.5000000000000002).hex()
    assert any(line.endswith(
        "sigma2_hat moved 1 ulp, eigenvalues_sha256 same, eigenvectors_sha256 same"
    ) for line in tool.diff(old, new))


def test_ulps_apart(tool):
    assert tool.ulps_apart((1.5).hex(), (1.5).hex()) == 0
    assert tool.ulps_apart((1.5).hex(), (1.5000000000000002).hex()) == 1
    assert tool.ulps_apart((1.5000000000000002).hex(), (1.5).hex()) == 1
    # across a power of two the spacing halves
    assert tool.ulps_apart((2.0).hex(), (1.9999999999999996).hex()) == 2
    assert tool.ulps_apart((2.0).hex(), (2.0000000000000009).hex()) == 2


def test_spectrum_reads_only_the_diagonal(tool, monkeypatch):
    import numpy as np

    import dppcluster as dc
    from dppcluster.kernel import KernelMatrix

    arts = dc.build_artifacts(np.random.default_rng(0).normal(size=(30, 2)))
    lam = arts.spectral.eigenvalues
    expected = float(np.trace(np.asarray(arts.kernel)) - lam.sum())

    def materialised(*_args, **_kwargs):
        raise AssertionError("the dense kernel was built")

    monkeypatch.setattr(KernelMatrix, "__array__", materialised)
    spectrum = tool._spectrum(arts)
    assert spectrum["trace_residual"] == expected
    assert float.fromhex(spectrum["sigma2_hat"]) == arts.sigma2_hat
    assert spectrum["eigenvalues_sha256"] == hashlib.sha256(lam.tobytes()).hexdigest()
    vec = np.ascontiguousarray(arts.spectral.eigenvectors)
    assert spectrum["eigenvectors_sha256"] == hashlib.sha256(vec.tobytes()).hexdigest()
    again = dc.build_artifacts(np.random.default_rng(0).normal(size=(30, 2)))
    other = dc.build_artifacts(np.random.default_rng(0).normal(size=(30, 2)), s=0.5)
    for key in ("eigenvalues_sha256", "eigenvectors_sha256"):
        assert tool._spectrum(again)[key] == spectrum[key]
        assert tool._spectrum(other)[key] != spectrum[key]


def test_draws_follow_the_pipeline(tool):
    import numpy as np

    import dppcluster as dc

    arts = dc.build_artifacts(np.random.default_rng(1).normal(size=(40, 2)))
    runs = dc.pipeline.RUN_BLOCK + 3
    draws = tool._draws(dc, arts, 4, runs)
    cfg = dc.PipelineConfig(seed=4, consensus=dc.ConsensusConfig(runs=runs))
    ens = dc.ensemble_runs(arts, cfg)
    assert [len(d) for d in draws] == ens.subset_sizes.tolist()
    assert [
        dc.dpp_log_likelihood(arts.kernel, d, arts.log_det_norm) for d in draws
    ] == ens.log_likelihoods.tolist()


def test_diff_names_moved_benchmark_cells(tool, tmp_path):
    old = _result("aa", 4.0, [[1, 2]], 2.5)
    cell = {"k": 3, "ari": 0.9, "error": None, "trajectory": {"10": 0.8, "50": 0.9}}
    old["benchmark"] = {"bench/d/dpp/seed0": cell}
    assert "benchmark cells moved (0): none" in tool.diff(old, old)
    # a record from before the cells were kept has none to compare
    assert "benchmark cells moved (0): none" in tool.diff(_result("aa", 4.0, [], 2.5), old)
    new = json.loads(json.dumps(old))
    new["benchmark"]["bench/d/dpp/seed0"]["trajectory"]["10"] = 0.7
    lines = tool.diff(old, new)
    assert "benchmark cells moved (1): bench/d/dpp/seed0" in lines
    assert "chosen labels identical in 1 of 1 cases" in lines
    (tmp_path / "old.json").write_text(json.dumps(old))
    (tmp_path / "new.json").write_text(json.dumps(new))
    assert tool.main(["diff", str(tmp_path / "old.json"), str(tmp_path / "new.json")]) == 1
