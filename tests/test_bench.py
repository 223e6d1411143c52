from dataclasses import replace

import numpy as np
import pytest

from dppcluster import (
    ConfigError,
    ConsensusConfig,
    GenerationExhausted,
    KernelMatrix,
    PipelineConfig,
    RngStream,
    ScenarioSpec,
    accumulate,
    ari,
    build_artifacts,
    ensemble_runs,
    generate_mixture,
)
from dppcluster import bench, pipeline
from dppcluster.bench import benchmark, diversity_series, prefix_selection


@pytest.fixture(scope="module")
def mini_dataset():
    return generate_mixture(ScenarioSpec(150, "low", "low"), RngStream(0, (0, 0)))


class TestBenchmark:
    def test_shape_contract(self, mini_dataset):
        # one scenario, two methods, 3 replicas -> 2 summary rows, and a
        # trajectory point per checkpoint per method
        spec = ScenarioSpec(150, "low", "low")
        cfg = PipelineConfig(seed=0, consensus=ConsensusConfig(runs=40))
        result = benchmark(
            [spec], ["dpp", "uniform"], cfg, replicas=3, checkpoints=(5, 10, 20, 40)
        )
        summary = result.summary_rows()
        assert len(summary) == 2
        assert {row["method"] for row in summary} == {"dpp", "uniform"}
        for row in summary:
            assert row["replicas_ok"] == 3
            assert row["replicas_failed"] == 0
            assert 0.0 <= row["ari_mean"] <= 1.0
        traj = result.trajectory_rows()
        assert len(traj) == 2 * 4
        hist = result.histogram_rows()
        assert len(hist) == 2 * 3 * 40

    def test_trajectory_uses_prefix_runs(self, mini_dataset):
        # the checkpoint score must equal a selection recomputed from the
        # first r partitions only
        ds = mini_dataset
        cfg = PipelineConfig(seed=1, consensus=ConsensusConfig(runs=30))
        arts = build_artifacts(ds.data)
        ens = ensemble_runs(arts, cfg)
        k10, score10 = prefix_selection(arts, ens.partitions[:10], cfg, ds.true_labels)
        k10b, score10b = prefix_selection(arts, ens.partitions[:10], cfg, ds.true_labels)
        assert (k10, score10) == (k10b, score10b)
        assert 0.0 <= score10 <= 1.0

    def test_generation_failure_recorded_not_fatal(self):
        def failing_generator(spec, stream):
            if stream.stream_id[-1] == 1:
                raise GenerationExhausted("injected failure")
            return generate_mixture(spec, stream)

        spec = ScenarioSpec(150, "low", "low")
        cfg = PipelineConfig(seed=0, consensus=ConsensusConfig(runs=10))
        result = benchmark(
            [spec], ["dpp"], cfg, replicas=2, checkpoints=(5,), generator=failing_generator
        )
        errors = [o for o in result.outcomes if o.error is not None]
        ok = [o for o in result.outcomes if o.error is None]
        assert len(errors) == 1
        assert "injected" in errors[0].error
        assert len(ok) == 1
        summary = result.summary_rows()
        assert summary[0]["replicas_failed"] == 1

    @pytest.mark.parametrize("checkpoints", [(5, 10, 20), (5, 10)])
    def test_one_selection_per_prefix(self, monkeypatch, mini_dataset, checkpoints):
        # a checkpoint at R (= 20) doubles as the full selection; without
        # one, the full run list costs one more selection
        prefixes = []
        real = bench.prefix_selection

        def counted(artifacts, partitions, cfg, truth):
            prefixes.append(len(partitions))
            return real(artifacts, partitions, cfg, truth)

        monkeypatch.setattr(bench, "prefix_selection", counted)
        spec = ScenarioSpec(150, "low", "low")
        cfg = PipelineConfig(seed=0, consensus=ConsensusConfig(runs=20))
        result = benchmark([spec], ["dpp"], cfg, replicas=1, checkpoints=checkpoints)
        (out,) = result.outcomes
        assert out.error is None
        assert prefixes == [5, 10, 20]
        assert set(out.trajectory) == set(checkpoints)
        # mini_dataset is the benchmark's first cell: stream (0, (0, 0))
        arts = build_artifacts(mini_dataset.data)
        full = real(arts, ensemble_runs(arts, cfg).partitions, cfg, mini_dataset.true_labels)
        assert (out.k_hat, out.ari) == full
        if 20 in checkpoints:
            assert out.ari == out.trajectory[20]


def test_selection_never_materialises_the_kernel(monkeypatch, mini_dataset):
    # select_clustering and prefix_consensus read the implicit kernel in row
    # blocks, and choose what the dense kernel chooses
    cfg = PipelineConfig(seed=5, consensus=ConsensusConfig(runs=30))
    arts = build_artifacts(mini_dataset.data)
    parts = ensemble_runs(arts, cfg).partitions
    consensus = accumulate(parts, arts.n)
    dense = pipeline.select_clustering(arts.kernel.entries, consensus, cfg.consensus)

    def materialised(*_args, **_kwargs):
        raise AssertionError("the dense kernel was built")

    monkeypatch.setattr(KernelMatrix, "entries", property(materialised))
    monkeypatch.setattr(KernelMatrix, "__array__", materialised)
    implicit = pipeline.select_clustering(arts.kernel, consensus, cfg.consensus)
    assert np.array_equal(implicit.chosen.labels, dense.chosen.labels)
    assert implicit.alpha == pytest.approx(dense.alpha, rel=1e-12)
    labels, k_hat, selection = bench.prefix_consensus(arts, parts, cfg)
    assert np.array_equal(labels, dense.chosen.labels) and k_hat == dense.chosen.k
    assert [s.kvi for s in selection.scores] == [s.kvi for s in implicit.scores]


class TestDiversitySeries:
    def test_two_series_with_run_rows(self, mini_dataset):
        cfg = PipelineConfig(seed=2, consensus=ConsensusConfig(runs=25))
        rows = diversity_series(mini_dataset.data, cfg)
        assert len(rows) == 2 * 25
        methods = {r["method"] for r in rows}
        assert methods == {"dpp", "uniform"}
        for r in rows:
            assert np.isfinite(r["log_likelihood"]) or r["log_likelihood"] == float("-inf")
            assert r["subset_size"] >= 2

    def test_dpp_series_higher_and_tighter(self, mini_dataset):
        # the diversity signature: higher mean mass, smaller dispersion.
        # A singular uniform draw has probability mass 0 (log = -inf): the
        # most dispersed value possible, so the series scores sd = inf.
        # Determinantal draws hit singular subsets with probability zero.
        cfg = PipelineConfig(seed=3, consensus=ConsensusConfig(runs=100))
        rows = diversity_series(mini_dataset.data, cfg)
        dpp = np.array([r["log_likelihood"] for r in rows if r["method"] == "dpp"])
        uni = np.array([r["log_likelihood"] for r in rows if r["method"] == "uniform"])
        assert np.isfinite(dpp).all()
        uni_mean = uni.mean() if np.isfinite(uni).all() else -np.inf
        uni_sd = uni.std() if np.isfinite(uni).all() else np.inf
        assert dpp.mean() > uni_mean
        assert dpp.std() < uni_sd

    def test_rows_match_ensemble_runs_without_partitions(self, monkeypatch, mini_dataset):
        # the rows are the ensemble's per-run sizes and log-likelihoods, but
        # no partition is built for them
        data = mini_dataset.data
        cfg = PipelineConfig(seed=4, consensus=ConsensusConfig(runs=12))
        methods = ("dpp", "uniform", "kmeans")
        artifacts = build_artifacts(data)
        expected = []
        for method in methods:
            ens = ensemble_runs(artifacts, replace(cfg, method=method))
            expected += [
                {"method": method, "run": r, "log_likelihood": float(ll), "subset_size": int(size)}
                for r, (ll, size) in enumerate(zip(ens.log_likelihoods, ens.subset_sizes))
            ]

        def forbidden(*_args, **_kwargs):
            raise AssertionError("diversity_series built a partition")

        monkeypatch.setattr(pipeline, "voronoi_assign", forbidden)
        monkeypatch.setattr(pipeline, "lloyd_kmeans", forbidden)
        assert diversity_series(data, cfg, methods=methods) == expected
        with pytest.raises(ConfigError, match="exceeds n"):
            diversity_series(data, replace(cfg, k_max=151))

    def test_pool_rows_match_serial(self, mini_dataset):
        cfg = PipelineConfig(seed=8, consensus=ConsensusConfig(runs=12))
        methods = ("dpp", "uniform", "kmeans")
        serial = diversity_series(mini_dataset.data, cfg, methods=methods)
        pooled = diversity_series(mini_dataset.data, replace(cfg, workers=2), methods=methods)
        assert pooled == serial
