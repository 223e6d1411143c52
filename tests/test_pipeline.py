import numpy as np
import pytest

from dppcluster import (
    ConfigError,
    ConsensusConfig,
    PipelineConfig,
    accumulate,
    build_artifacts,
    ensemble_runs,
    run_pipeline,
)
from dppcluster.pipeline import METHODS


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.method == "dpp"
        assert cfg.consensus.runs == 200
        assert cfg.consensus.tau == 0.6
        assert cfg.consensus.a == 0.5
        assert cfg.s == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(method="pam")
        with pytest.raises(ConfigError):
            PipelineConfig(preprocessing="log")
        with pytest.raises(ConfigError):
            PipelineConfig(s=0.0)
        with pytest.raises(ConfigError):
            PipelineConfig(workers=0)
        with pytest.raises(ConfigError):
            PipelineConfig(k_max=1)


class TestRunPipeline:
    def test_two_blobs_recovered_exactly(self, blob_data):
        x, truth = blob_data
        report = run_pipeline(x, PipelineConfig(seed=7), truth=truth)
        assert report.k_hat == 2
        assert report.ari == 1.0
        assert report.rn_abs == 0.0

    def test_single_run_consensus_is_binary(self, blob_data):
        x, truth = blob_data
        cfg = PipelineConfig(seed=3, consensus=ConsensusConfig(runs=1))
        report = run_pipeline(x, cfg, truth=truth)
        entries = report.consensus.entries
        assert set(np.unique(entries)) <= {0.0, 1.0}
        assert report.runs == 1

    def test_same_seed_reproduces_byte_identical_report(self, blob_data):
        x, truth = blob_data
        cfg = PipelineConfig(seed=11, consensus=ConsensusConfig(runs=50))
        a = run_pipeline(x, cfg, truth=truth)
        b = run_pipeline(x, cfg, truth=truth)
        assert a.to_json() == b.to_json()

    def test_workers_do_not_change_results(self, blob_data):
        x, truth = blob_data
        base = dict(seed=5, consensus=ConsensusConfig(runs=24))
        serial = run_pipeline(x, PipelineConfig(workers=1, **base), truth=truth)
        parallel = run_pipeline(x, PipelineConfig(workers=3, **base), truth=truth)
        assert serial.to_json() == parallel.to_json()

    def test_uniform_and_kmeans_methods(self, blob_data):
        x, truth = blob_data
        uni = run_pipeline(x, PipelineConfig(method="uniform", seed=2), truth=truth)
        assert uni.ari == 1.0
        km = run_pipeline(
            x, PipelineConfig(method="kmeans", seed=2, k_max=3), truth=truth
        )
        assert km.ari == 1.0

    def test_report_carries_diagnostics(self, blob_data):
        x, _ = blob_data
        cfg = PipelineConfig(seed=1, consensus=ConsensusConfig(runs=30))
        report = run_pipeline(x, cfg)
        assert report.log_likelihoods.shape == (30,)
        assert report.subset_sizes.shape == (30,)
        assert report.subset_sizes.min() >= 2
        assert report.ari is None
        assert set(report.timings) == {"kernel", "runs", "consensus", "selection"}

    def test_json_excludes_timings_by_default(self, blob_data):
        x, _ = blob_data
        cfg = PipelineConfig(seed=1, consensus=ConsensusConfig(runs=10))
        report = run_pipeline(x, cfg)
        assert "timings" not in report.to_dict()
        assert "timings" in report.to_dict(include_timings=True)


class TestEnsemble:
    def test_prefix_property(self, blob_data):
        # consensus at checkpoint r must equal accumulation of the first r runs
        x, _ = blob_data
        cfg = PipelineConfig(seed=9, consensus=ConsensusConfig(runs=20))
        arts = build_artifacts(x)
        ens = ensemble_runs(arts, cfg)
        full = accumulate(ens.partitions, arts.n)
        for r in (5, 10, 20):
            prefix = accumulate(ens.partitions[:r], arts.n)
            recomputed = accumulate(list(ens.partitions[:r]), arts.n)
            assert np.array_equal(prefix.entries, recomputed.entries)
        assert full.runs == 20

    def test_run_streams_are_stable_under_run_count(self, blob_data):
        # run r's partition does not depend on how many runs follow it
        x, _ = blob_data
        arts = build_artifacts(x)
        short = ensemble_runs(arts, PipelineConfig(seed=4, consensus=ConsensusConfig(runs=5)))
        long = ensemble_runs(arts, PipelineConfig(seed=4, consensus=ConsensusConfig(runs=15)))
        for a, b in zip(short.partitions, long.partitions[:5]):
            assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("method", METHODS)
    def test_pool_matches_serial(self, blob_data, method):
        # every method's branch reads the payload the pool initializer sends
        x, _ = blob_data
        arts = build_artifacts(x)
        base = dict(method=method, seed=6, k_max=5, consensus=ConsensusConfig(runs=12))
        serial = ensemble_runs(arts, PipelineConfig(workers=1, **base))
        pooled = ensemble_runs(arts, PipelineConfig(workers=2, **base))
        assert [p.labels.tolist() for p in pooled.partitions] == [
            p.labels.tolist() for p in serial.partitions
        ]
        assert [p.k for p in pooled.partitions] == [p.k for p in serial.partitions]
        assert np.array_equal(pooled.subset_sizes, serial.subset_sizes)
        assert np.array_equal(pooled.log_likelihoods, serial.log_likelihoods)
