import concurrent.futures
import os
import pickle
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from dppcluster import (
    ConfigError,
    ConsensusConfig,
    DegenerateData,
    Partition,
    PipelineConfig,
    RngStream,
    ShapeMismatch,
    accumulate,
    build_artifacts,
    ensemble_runs,
    generate_mixture_fixed,
    run_pipeline,
    voronoi_assign,
)
from dppcluster.bench import diversity_series
from dppcluster.io import read_data_csv, read_labels_csv, render_report_text
from dppcluster import pipeline
from dppcluster.pipeline import METHODS, RUN_BLOCK, _map_runs, artifacts_pool, defer_tasks
from dppcluster.sampling import default_k_max


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

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bandwidth_factor_must_be_positive_and_finite(self, bad):
        # the message build_rbf_kernel gives, before any O(n^2) pass
        with pytest.raises(ConfigError, match="bandwidth factor s must be positive and finite"):
            PipelineConfig(s=bad)

    @pytest.mark.parametrize(
        "field, bad",
        [("seed", -1), ("seed", 1.5), ("k_max", 2.5), ("workers", 1.5), ("workers", "2")],
    )
    def test_integer_settings_must_be_whole(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            PipelineConfig(**{field: bad})

    def test_whole_settings_are_stored_as_ints(self):
        cfg = PipelineConfig(seed=np.int64(3), k_max=4.0, workers=2.0)
        assert (cfg.seed, cfg.k_max, cfg.workers) == (3, 4, 2)
        assert all(type(v) is int for v in (cfg.seed, cfg.k_max, cfg.workers))


DATA = Path(__file__).resolve().parent / "data"


class TestRunPipeline:
    def test_iris_result_pinned(self):
        x = read_data_csv(DATA / "iris.csv")
        truth = read_labels_csv(DATA / "iris_labels.csv")
        report = run_pipeline(x, PipelineConfig(), truth=truth)
        assert (report.k_hat, report.threshold) == (4, 0.85)
        assert report.ari == pytest.approx(0.6956, abs=1e-4)
        table = [(c.threshold, c.k) for c in report.candidates]
        assert table == [(0.6, 2), (0.85, 4), (0.95, 6)]

    @pytest.mark.parametrize("truth", [np.zeros(10, int), np.zeros((150, 2), int)])
    def test_truth_of_another_shape_fails_before_any_work(self, monkeypatch, truth):
        def no_work(*args, **kwargs):
            raise AssertionError("build_artifacts ran")

        monkeypatch.setattr(pipeline, "build_artifacts", no_work)
        x = read_data_csv(DATA / "iris.csv")
        with pytest.raises(ShapeMismatch, match="truth has shape"):
            run_pipeline(x, PipelineConfig(), truth=truth)

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
        assert "timings:" in render_report_text(report)


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


def _traced_peak(call):
    """``call()`` and the tracemalloc peak it reached above the bytes
    allocated before it; tracemalloc must be tracing."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    out = call()
    return out, tracemalloc.get_traced_memory()[1] - before


class TestLabelStack:
    n, runs = 1000, 200

    @pytest.fixture(scope="class")
    def arts(self):
        # four tight clusters, rank 24
        rng = np.random.default_rng(0)
        centers = ((0, 0), (3, 0), (0, 3), (3, 3))
        x = np.concatenate([rng.normal(c, 0.3, size=(self.n // 4, 2)) for c in centers])
        arts = build_artifacts(x)
        arts.kernel.expansion  # the centred rows, cached once for every Voronoi run
        return arts

    @pytest.mark.parametrize("method", ["dpp", "uniform"])
    def test_runs_take_r_n_bytes_beside_one_block(self, arts, method):
        # the stack holds R n uint8 labels; besides it, the peak is that of
        # the largest block (its draws, Voronoi keys and labels: 0.8-1.0 MB
        # here) plus the previous block's labels and the per-run tuples,
        # 67-83 kB measured, which the 128 kB slack covers.  200 int64
        # Partitions beside their int64 re-wrap took about 16.5 R n
        # (3.3 MB), more than this bound.
        k_max = default_k_max(self.n)
        cfg = PipelineConfig(method=method, seed=0, consensus=ConsensusConfig(runs=self.runs))
        tracemalloc.start()
        try:
            block = max(
                _traced_peak(lambda: pipeline._block_runs(
                    range(top, top + RUN_BLOCK), arts, method, cfg.seed, k_max
                ))[1]
                for top in range(0, self.runs, RUN_BLOCK)
            )
            ens, peak = _traced_peak(lambda: ensemble_runs(arts, cfg))
        finally:
            tracemalloc.stop()
        assert peak < self.runs * self.n + block + (128 << 10)
        assert ens.partitions.labels.dtype == np.uint8

    def test_prefix_slices_share_the_stack_and_pickle_as_their_labels(self, arts):
        cfg = PipelineConfig(seed=0, consensus=ConsensusConfig(runs=self.runs))
        ens = ensemble_runs(arts, cfg)
        stack = ens.partitions.labels
        assert stack.shape == (self.runs, self.n) and not stack.flags.writeable
        for r in (10, 100, self.runs):
            prefix = ens.partitions[:r]
            assert np.shares_memory(prefix.labels, stack)
            blob = pickle.dumps(prefix)
            assert len(blob) < r * self.n + 4096
            back = pickle.loads(blob)
            assert np.array_equal(back.labels, prefix.labels) and back.ks == prefix.ks

    def test_uint16_stack_yields_the_partitions_of_the_runs(self):
        # uniform draws of up to 300 generators at n = 400: runs with more
        # than 256 clusters widen the stack to uint16
        n = 400
        arts = build_artifacts(np.random.default_rng(0).random((n, 3)))
        cfg = PipelineConfig(
            method="uniform", k_max=300, seed=0, consensus=ConsensusConfig(runs=20)
        )
        ens = ensemble_runs(arts, cfg)
        assert ens.partitions.labels.dtype == np.uint16
        # each run's Voronoi partition, as the runs were kept before the stack
        parts = [
            voronoi_assign(arts.kernel, gens)
            for gens, _ in _map_runs(pipeline._block_draws, arts, cfg)
        ]
        assert max(p.k for p in parts) > 256
        got = list(ens.partitions)
        assert all(type(p) is Partition and p.labels.dtype == np.int64 for p in got)
        assert [(p.labels.tolist(), p.k) for p in got] == [(p.labels.tolist(), p.k) for p in parts]
        assert np.array_equal(accumulate(ens.partitions, n).counts, accumulate(parts, n).counts)


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    each task in this process, after the initializer."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


class TestPoolSize:
    # no real pool starts here: a pool of the requested size is the fault
    @pytest.fixture
    def stub(self, monkeypatch):
        # artifacts_pool imports the pool from concurrent.futures when it opens one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlineExecutor)
        monkeypatch.setattr(pipeline, "_WORKER_ARTIFACTS", None)  # restored afterwards
        monkeypatch.setattr(_InlineExecutor, "sizes", [])
        return _InlineExecutor.sizes

    @pytest.mark.parametrize(
        "cpus, workers, started",
        [(4, 2, 2), (4, 3, 3), (4, 4, 4), (4, 10**6, 4), (1, 2, 2), (1, 10**6, 2)],
    )
    def test_at_most_the_usable_cpus_and_at_least_two(
        self, monkeypatch, stub, blob_data, cpus, workers, started
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)), raising=False)
        arts = build_artifacts(blob_data[0])
        with artifacts_pool(arts, 1) as none:
            assert none is None
        with artifacts_pool(arts, workers):
            pass
        assert stub == [started]

    def test_results_unchanged_at_a_huge_worker_count(self, stub, blob_data):
        x, _ = blob_data
        arts = build_artifacts(x)
        base = dict(seed=6, consensus=ConsensusConfig(runs=2 * RUN_BLOCK))
        serial = ensemble_runs(arts, PipelineConfig(workers=1, **base))
        huge = ensemble_runs(arts, PipelineConfig(workers=10**6, **base))
        assert stub == [max(2, len(os.sched_getaffinity(0)))]
        assert [p.labels.tolist() for p in huge.partitions] == [
            p.labels.tolist() for p in serial.partitions
        ]
        assert np.array_equal(huge.log_likelihoods, serial.log_likelihoods)


def _block_bounds(runs, *_payload):
    return [(runs.start, runs.stop)] * len(runs)


class TestRunBlocks:
    B = RUN_BLOCK

    @pytest.mark.parametrize("workers", [1, 3])
    def test_tasks_are_the_fixed_blocks(self, blob_data, workers):
        # a draw's rounding depends on its block, so the blocks may not
        # follow the worker count
        runs = 2 * self.B + 1
        cfg = PipelineConfig(workers=workers, consensus=ConsensusConfig(runs=runs))
        got = _map_runs(_block_bounds, build_artifacts(blob_data[0]), cfg)
        tops = [r - r % self.B for r in range(runs)]
        assert got == [(top, min(top + self.B, runs)) for top in tops]

    @pytest.fixture(scope="class")
    def by_runs(self, blob_data):
        # R just below, at and above one block, and past two: serial and on
        # three workers, whose tasks are the same fixed blocks
        x, _ = blob_data
        arts = build_artifacts(x)
        out = {}
        for runs in (self.B - 1, self.B, self.B + 1, 2 * self.B + 1):
            for workers in (1, 3):
                cfg = PipelineConfig(seed=2, workers=workers, consensus=ConsensusConfig(runs=runs))
                out[runs, workers] = (ensemble_runs(arts, cfg), diversity_series(x, cfg))
        return out

    @staticmethod
    def _runs(ens):
        return [
            (p.labels.tolist(), p.k, int(size), float(ll))
            for p, size, ll in zip(ens.partitions, ens.subset_sizes, ens.log_likelihoods)
        ]

    def test_workers_do_not_change_any_run(self, by_runs):
        for runs in {r for r, _ in by_runs}:
            (serial, rows), (pooled, pooled_rows) = by_runs[runs, 1], by_runs[runs, 3]
            assert len(serial.partitions) == runs
            assert self._runs(pooled) == self._runs(serial)
            assert pooled_rows == rows

    def test_complete_blocks_are_the_same_at_every_runs(self, by_runs):
        full = self._runs(by_runs[2 * self.B + 1, 1][0])
        rows = by_runs[2 * self.B + 1, 1][1]
        for runs in (self.B, self.B + 1):
            ens, series = by_runs[runs, 1]
            assert self._runs(ens)[: self.B] == full[: self.B]
            for method in ("dpp", "uniform"):
                mine = [r for r in series if r["method"] == method]
                assert mine[: self.B] == [r for r in rows if r["method"] == method][: self.B]


def _task_or_fail(task, artifacts, offset):
    if task == 1:
        raise DegenerateData(f"task {task} failed")
    return task * 10 + offset, artifacts.n


class TestDeferTasks:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_task_order_and_errors_only_when_called(self, blob_data, workers):
        arts = build_artifacts(blob_data[0])
        with artifacts_pool(arts, workers) as pool:
            calls = defer_tasks(pool, _task_or_fail, [3, 1, 0, 2], arts, 7)
            assert [calls[i]() for i in (0, 2, 3)] == [(37, arts.n), (7, arts.n), (27, arts.n)]
            with pytest.raises(DegenerateData, match="task 1 failed"):
                calls[1]()


class TestMemoryGuard:
    # The peaks of build_artifacts and run_pipeline on one fixed dataset,
    # in units of one n x n float64 array (8 n^2 bytes), measured at 0.68
    # and 1.02; the n x n distance matrix they held before took them to
    # 1.68 and 2.35, the bandwidth's condensed vector of the pairs (half an
    # array) took build_artifacts to 0.85, and a float32 one-hot batch of
    # up to n columns (half an array) beside a copy of the counts took
    # run_pipeline to 1.39.  Each bound lies less than half an array above
    # its measurement, so one more such array, that vector or that batch
    # would exceed it.
    n = 600
    bounds = {"build_artifacts": 1.0, "run_pipeline": 1.3}

    @pytest.fixture(scope="class")
    def data(self):
        return generate_mixture_fixed(self.n, 4, 4, RngStream(7, 0)).data

    @pytest.mark.parametrize("stage", sorted(bounds))
    def test_no_square_float_array(self, data, stage):
        call = {
            "build_artifacts": lambda: build_artifacts(data),
            "run_pipeline": lambda: run_pipeline(data, PipelineConfig(seed=3)),
        }[stage]
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.bounds[stage] * 8 * self.n * self.n
