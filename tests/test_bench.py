import concurrent.futures
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from dppcluster import (
    ConfigError,
    ConsensusConfig,
    DegenerateScatter,
    GenerationExhausted,
    KernelMatrix,
    PipelineConfig,
    RngStream,
    ScenarioSpec,
    accumulate,
    ari,
    build_artifacts,
    candidate_clusterings,
    ensemble_runs,
    generate_mixture,
    kvi,
)
from dppcluster import bench, pipeline
from dppcluster.bench import benchmark, diversity_series, prefix_selection
from oracles import kernel_scatter


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

    @pytest.mark.parametrize("methods", [["dpp", "uniform", "dpp"], ["dpp", "dpx"], []])
    def test_methods_must_be_known_and_distinct(self, methods):
        # a repeated method used to report one replica as two
        def never(_spec, _stream):
            raise AssertionError("a dataset was generated")

        cfg = PipelineConfig(consensus=ConsensusConfig(runs=10))
        with pytest.raises(ConfigError, match="named once"):
            benchmark([ScenarioSpec(150, "low", "low")], methods, cfg, replicas=1,
                      generator=never)

    @pytest.mark.parametrize("replicas", [0, -1, 1.5])
    def test_replicas_must_be_a_positive_whole_number(self, replicas):
        # zero replicas used to return an empty result
        def never(_spec, _stream):
            raise AssertionError("a dataset was generated")

        cfg = PipelineConfig(consensus=ConsensusConfig(runs=10))
        with pytest.raises(ConfigError, match="replicas"):
            benchmark([ScenarioSpec(150, "low", "low")], ["dpp"], cfg, replicas=replicas,
                      generator=never)

    @pytest.mark.parametrize("checkpoints", [(-5, 10), (0, 10), (2.7,), (10, "20")])
    def test_checkpoints_must_be_positive_whole_numbers(self, checkpoints):
        # -5 used to report the first 15 runs as trajectory[-5], 0 failed
        # every cell, and 2.7 silently became 2
        def never(_spec, _stream):
            raise AssertionError("a dataset was generated")

        cfg = PipelineConfig(consensus=ConsensusConfig(runs=20))
        with pytest.raises(ConfigError, match="checkpoint"):
            benchmark([ScenarioSpec(150, "low", "low")], ["dpp"], cfg, replicas=1,
                      checkpoints=checkpoints, generator=never)

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

    def test_kernel_failure_recorded_not_fatal(self, mini_dataset):
        # identical points have no bandwidth: the replica fails for every
        # method, as a failed generation does, and the sweep goes on
        def generator(spec, stream):
            if stream.stream_id[-1] == 1:
                return replace(mini_dataset, data=np.ones_like(mini_dataset.data))
            return mini_dataset

        spec = ScenarioSpec(150, "low", "low")
        cfg = PipelineConfig(seed=0, consensus=ConsensusConfig(runs=10))
        result = benchmark(
            [spec], ["dpp", "uniform"], cfg, replicas=2, checkpoints=(5,), generator=generator
        )
        failed = [o for o in result.outcomes if o.error is not None]
        assert [(o.method, o.replica) for o in failed] == [("dpp", 1), ("uniform", 1)]
        for o in failed:
            assert o.error == "kernel: all observations identical; bandwidth is undefined"
            assert (o.realized_p, o.realized_k) == (mini_dataset.p, mini_dataset.k)
            assert o.trajectory == {} and o.k_hat is None
        assert [row["replicas_failed"] for row in result.summary_rows()] == [1, 1]

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


def _outcome_fields(result):
    return [
        (
            o.scenario, o.method, o.replica, o.trajectory, o.k_hat, o.ari, o.rn_abs,
            None if o.subset_sizes is None else o.subset_sizes.tolist(),
            None if o.log_likelihoods is None else o.log_likelihoods.tolist(),
            o.error,
        )
        for o in result.outcomes
    ]


def _failing_prefix(artifacts, partitions, cfg):
    # a fault in the selection of the second prefix only
    if len(partitions) == 10:
        raise DegenerateScatter(f"injected at {cfg.method}")
    return _real_prefix_consensus(artifacts, partitions, cfg)


_real_prefix_consensus = bench.prefix_consensus
# workers inherit a patched module only when they are forked
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers are not forked"
)


class TestSharedPool:
    METHODS = ("dpp", "uniform", "kmeans")
    SPEC = ScenarioSpec(150, "low", "low")

    @staticmethod
    def _run(workers, dataset):
        # two replicas of one dataset: one pool each
        cfg = PipelineConfig(seed=3, workers=workers, consensus=ConsensusConfig(runs=30))
        return benchmark(
            [TestSharedPool.SPEC], TestSharedPool.METHODS, cfg, replicas=2,
            checkpoints=(5, 10, 20), generator=lambda _spec, _stream: dataset,
        )

    def test_outcomes_identical_at_every_worker_count(self, mini_dataset):
        serial = _outcome_fields(self._run(1, mini_dataset))
        assert all(out[-1] is None for out in serial)
        for workers in (2, 3):
            assert _outcome_fields(self._run(workers, mini_dataset)) == serial
            assert multiprocessing.active_children() == []

    def test_runs_serially_without_a_pool(self, monkeypatch, mini_dataset):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("a pool was opened at one worker")

        # artifacts_pool imports the pool from concurrent.futures when it opens one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
        assert all(o.error is None for o in self._run(1, mini_dataset).outcomes)

    def test_prefix_error_lands_as_serially(self, mini_dataset):
        # truth of the wrong length fails every prefix's score
        bad = replace(mini_dataset, true_labels=mini_dataset.true_labels[:-1])
        outs = [self._run(w, bad) for w in (1, 2)]
        assert _outcome_fields(outs[1]) == _outcome_fields(outs[0])
        assert {o.error for o in outs[0].outcomes} == {
            "labels must be 1-d of one length, got shapes (150,) and (149,)"
        }
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_prefix_selections_run_on_the_pool(self, monkeypatch, mini_dataset):
        parent, real = os.getpid(), bench.prefix_selection

        def elsewhere(*args):
            assert os.getpid() != parent, "a prefix selection ran in the parent"
            return real(*args)

        monkeypatch.setattr(bench, "prefix_selection", elsewhere)
        assert all(o.error is None for o in self._run(2, mini_dataset).outcomes)

    @needs_fork
    def test_later_prefix_error_lands_as_serially(self, monkeypatch, mini_dataset):
        # the first prefix scores, the second fails and ends the cell
        monkeypatch.setattr(bench, "prefix_consensus", _failing_prefix)
        serial, pooled = self._run(1, mini_dataset), self._run(2, mini_dataset)
        assert _outcome_fields(pooled) == _outcome_fields(serial)
        for o in serial.outcomes:
            assert o.error == f"injected at {o.method}"
            assert list(o.trajectory) == [5] and o.k_hat is None
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_no_worker_outlives_an_unexpected_error(self, monkeypatch, mini_dataset):
        def broken(*_args):
            raise RuntimeError("not a ClusterError")

        monkeypatch.setattr(bench, "prefix_consensus", broken)
        with pytest.raises(RuntimeError, match="not a ClusterError"):
            self._run(2, mini_dataset)
        assert multiprocessing.active_children() == []


def test_selection_never_materialises_the_kernel(monkeypatch, mini_dataset):
    # select_clustering and prefix_consensus read the implicit kernel in row
    # blocks, and choose what the block sum oracle chooses on the dense kernel
    cfg = PipelineConfig(seed=5, consensus=ConsensusConfig(runs=30))
    arts = build_artifacts(mini_dataset.data)
    parts = ensemble_runs(arts, cfg).partitions
    consensus = accumulate(parts, arts.n)
    entries = arts.kernel.entries
    dense = kvi(
        (clus, kernel_scatter(entries, clus.labels))
        for clus in candidate_clusterings(consensus, cfg.consensus)
    )

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

    def test_methods_must_be_distinct(self, monkeypatch, mini_dataset):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("artifacts were built")

        monkeypatch.setattr(bench, "build_artifacts", forbidden)
        cfg = PipelineConfig(consensus=ConsensusConfig(runs=10))
        with pytest.raises(ConfigError, match="named once"):
            diversity_series(mini_dataset.data, cfg, methods=("dpp", "dpp"))

    def test_pool_rows_match_serial(self, mini_dataset):
        cfg = PipelineConfig(seed=8, consensus=ConsensusConfig(runs=12))
        methods = ("dpp", "uniform", "kmeans")
        serial = diversity_series(mini_dataset.data, cfg, methods=methods)
        pooled = diversity_series(mini_dataset.data, replace(cfg, workers=2), methods=methods)
        assert pooled == serial
