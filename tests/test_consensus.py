import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppcluster import (
    ConfigError,
    ConsensusConfig,
    ConsensusMatrix,
    NoCandidates,
    Partition,
    PipelineConfig,
    ShapeMismatch,
    accumulate,
    build_artifacts,
    candidate_clusterings,
    ensemble_runs,
    merge_small,
    spanning_tree,
    threshold_components,
)
from dppcluster import consensus
from dppcluster.consensus import (
    _CHECK_ENTRIES,
    _PRODUCT_ROWS,
    co_membership_counts,
    default_threshold_grid,
)
from dppcluster.io import read_data_csv
from oracles import (
    bfs_components,
    candidate_clusterings_oracle,
    dedup_by_ari_oracle,
    merge_small_oracle,
)

DATA = Path(__file__).parent / "data"


def _p(raw):
    # the partition of any ids, numbered 0..k-1 in their order
    uniq, labels = np.unique(raw, return_inverse=True)
    return Partition(labels, uniq.size)


def _random_consensus(rng, n, runs=10):
    # build a legal consensus matrix by accumulating random partitions
    raws = []
    for _ in range(runs):
        k = int(rng.integers(1, 5))
        raw = rng.integers(0, k, size=n)
        raw[:k] = np.arange(k)  # keep every id nonempty
        raws.append(raw)
    return accumulate(np.array(raws), n)


class TestAccumulate:
    def test_single_run_is_binary(self):
        c = accumulate(np.array([[0, 0, 1]]), 3)
        expected = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(c.entries, expected)
        assert c.runs == 1

    def test_two_runs_halves(self):
        c = accumulate(np.array([[0, 0, 1], [0, 1, 1]]), 3)
        assert c.entries[0, 1] == 0.5
        assert c.entries[1, 2] == 0.5
        assert c.entries[0, 2] == 0.0

    def test_all_singletons_identity(self):
        c = accumulate(np.tile(np.arange(4), (4, 1)), 4)
        assert np.array_equal(c.entries, np.eye(4))

    def test_order_invariance(self):
        runs = np.array([[0, 0, 1, 1, 0, 1], [0, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
        a = accumulate(runs, 6)
        b = accumulate(runs[::-1], 6)
        assert np.array_equal(a.entries, b.entries)

    def test_partial_counts_merge_associatively(self):
        runs = np.array([[0, 0, 1, 1], [0, 1, 1, 0], [0, 0, 0, 0]])
        whole = co_membership_counts(runs, 4)
        split = co_membership_counts(runs[:1], 4) + co_membership_counts(runs[1:], 4)
        assert np.array_equal(whole, split)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            accumulate(np.array([[0, 1, 1], [0, 0, 1]]), 2)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            accumulate(np.empty((0, 3), np.uint8), 3)

    @pytest.mark.parametrize(
        "labels, error",
        [
            (np.zeros(3, np.uint8), ShapeMismatch),
            (np.zeros((1, 1, 3), np.uint8), ShapeMismatch),
            (np.zeros((3, 1), np.uint8), ShapeMismatch),
            (np.zeros((1, 3)), ConfigError),
            (np.zeros((1, 3), bool), ConfigError),
            (np.zeros((1, 3), object), ConfigError),
            ([[0, 0, 1]], ConfigError),
            ([Partition([0, 0, 1], 2)], ConfigError),
        ],
        ids=["1-d", "3-d", "columns", "float", "bool", "object", "nested-list", "partitions"],
    )
    def test_bad_runs_raise(self, labels, error):
        # only an (R, n) integer array is read; anything else is refused,
        # not converted, by accumulate and co_membership_counts alike
        with pytest.raises(error):
            accumulate(labels, 3)
        with pytest.raises(error):
            co_membership_counts(labels, 3)

    def test_entries_are_multiples_of_one_over_runs(self):
        rng = np.random.default_rng(1)
        c = _random_consensus(rng, 12, runs=7)
        scaled = c.entries * c.runs
        assert np.abs(scaled - np.rint(scaled)).max() <= 1e-9


@st.composite
def _tied_consensus(draw, max_n=40):
    # one to five runs of partitions with few to many ids: consensus entries
    # on a coarse grid, so links tie often
    n = draw(st.integers(1, max_n))
    runs = draw(st.integers(1, 5))
    ids = st.integers(0, draw(st.integers(0, n - 1)))
    labels = [draw(st.lists(ids, min_size=n, max_size=n)) for _ in range(runs)]
    return accumulate(np.array(labels), n)


class TestThresholdComponents:
    def test_theta_zero_single_component(self):
        rng = np.random.default_rng(2)
        c = _random_consensus(rng, 10)
        part = threshold_components(spanning_tree(c), 0.0)
        assert part.k == 1

    def test_theta_above_everything_gives_singletons(self):
        rng = np.random.default_rng(3)
        c = _random_consensus(rng, 10)
        off = c.entries[~np.eye(10, dtype=bool)]
        part = threshold_components(spanning_tree(c), off.max() + 1e-9)
        assert part.k == 10

    def test_block_fixture(self):
        c = ConsensusMatrix(np.array([[10, 8, 0], [8, 10, 0], [0, 0, 10]]), 10)
        part = threshold_components(spanning_tree(c), 0.6)
        assert part.labels[0] == part.labels[1] != part.labels[2]
        assert part.k == 2

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tied_consensus(), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    def test_agrees_with_bfs_oracle(self, c, theta):
        # same labels, not just the same partition: both number components
        # by their smallest member
        part = threshold_components(spanning_tree(c), theta)
        expected = bfs_components((c.entries >= theta) & ~np.eye(c.n, dtype=bool))
        assert np.array_equal(part.labels, expected)
        assert part.k == expected.max() + 1

    def test_refinement_monotonicity(self):
        rng = np.random.default_rng(5)
        c = _random_consensus(rng, 25)
        tree = spanning_tree(c)
        coarse = threshold_components(tree, 0.3)
        fine = threshold_components(tree, 0.7)
        # each fine component must live inside one coarse component
        for cid in range(fine.k):
            members = np.flatnonzero(fine.labels == cid)
            assert np.unique(coarse.labels[members]).size == 1


class TestMergeSmall:
    def test_noop_when_all_large(self):
        c = ConsensusMatrix(np.array([[10, 8, 0], [8, 10, 0], [0, 0, 10]]), 10)
        comp = _p([0, 0, 1])
        out = merge_small(comp, c, min_size=1)
        assert np.array_equal(out.labels, comp.labels)
        assert not out.merged

    def test_single_merge_follows_strongest_link(self):
        # component {4} merges into the block holding its strongest link (node 2)
        n = 5
        counts = 2 * np.eye(n, dtype=int)
        block = [0, 1, 2, 3]
        for i in block:
            for j in block:
                counts[i, j] = 2
        counts[4, 2] = counts[2, 4] = 1
        c = ConsensusMatrix(counts, 2)
        out = merge_small(_p([0, 0, 0, 0, 1]), c, min_size=2)
        assert out.k == 1
        assert out.merged

    def test_three_singletons_trace(self):
        # frozen hand trace: {0} joins 1 via 0.5, then {2} joins via 0.4
        c = ConsensusMatrix(np.array([[10, 5, 2], [5, 10, 4], [2, 4, 10]]), 10)
        out = merge_small(_p([0, 1, 2]), c, min_size=2)
        assert out.k == 1
        assert np.array_equal(out.labels, np.zeros(3, dtype=np.int64))

    def test_never_increases_k_and_respects_min_size(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(6, 40))
            c = _random_consensus(rng, n)
            comp = threshold_components(spanning_tree(c), 0.5)
            min_size = int(rng.integers(2, 6))
            out = merge_small(comp, c, min_size)
            assert out.k <= comp.k
            if out.k > 1:
                assert np.bincount(out.labels).min() >= min_size

    @pytest.mark.parametrize("size", [4, 8])
    def test_components_of_another_n_raise(self, size):
        # fewer labels than the matrix has points were merged as if they
        # were its first points, more raised a bare IndexError
        c = accumulate(np.array([[0, 0, 1, 1, 2, 2]]), 6)
        with pytest.raises(ShapeMismatch, match=f"{size} labels.* n=6"):
            merge_small(_p(np.arange(size) // 2), c, 2)

    def test_threshold_carried(self):
        c = ConsensusMatrix(np.eye(2, dtype=int), 1)
        out = merge_small(_p([0, 1]), c, min_size=1, threshold=0.7)
        assert out.threshold == 0.7


@st.composite
def _merge_inputs(draw):
    # few runs of many-cluster partitions: coarse, heavily tied consensus
    # entries and mostly singleton components of tied sizes.  Shuffled
    # components of one size make absorbers grow past components they tied
    # with and take an earlier smallest member, which leaves stale heap
    # entries behind.
    n = draw(st.integers(2, 64))
    runs = draw(st.integers(1, 4))
    ids = st.integers(0, n - 1)
    c = accumulate(np.array([draw(st.lists(ids, min_size=n, max_size=n)) for _ in range(runs)]), n)
    kind = draw(st.sampled_from(["threshold", "random", "equal"]))
    if kind == "threshold":
        theta = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
        comp = threshold_components(spanning_tree(c), theta).labels
    elif kind == "random":
        comp = np.array(draw(st.lists(ids, min_size=n, max_size=n)))
    else:
        size = draw(st.integers(1, max(1, n // 3)))
        comp = np.arange(n) // size
        comp[draw(st.permutations(range(n)))] = comp.copy()
    return c, _p(comp), draw(st.integers(1, n))


@st.composite
def _singleton_inputs(draw):
    # components that are mostly singletons, over counts of 1 to 1000 runs
    # (uint16 past 255).  "tied" counts take two values, so links tie and
    # the lexicographic pair decides; on a "rising" chain the strongest
    # link of i is the later singleton i + 1, which an earlier merge may
    # have grown; on a "falling" one it is i - 1, which an earlier merge
    # may have absorbed into another component.  At n = 1 or 2, or with
    # few components, k reaches 1 among the singletons.
    n = draw(st.integers(1, 40))
    runs = draw(st.sampled_from([1, 2, 7, 255, 256, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tied", "rising", "falling"]))
    if kind == "tied":
        counts = rng.choice(rng.integers(0, runs + 1, size=2), size=(n, n))
    else:
        counts = rng.integers(0, runs // 2 + 1, size=(n, n))
        i = np.arange(n - 1)
        rise = i if kind == "rising" else i[::-1]
        counts[i, i + 1] = np.minimum(runs // 2 + 1 + rise, runs)
    counts = np.triu(counts, 1)
    counts += counts.T
    np.fill_diagonal(counts, runs)
    comp = np.arange(n)
    grouped = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    comp[grouped] = n + rng.integers(0, 3, size=int(grouped.sum()))
    min_size = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, n + 1)))
    return ConsensusMatrix(counts, runs), _p(comp), min_size


class TestFastPathsAgainstOracles:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_merge_inputs())
    def test_merge_small_matches_oracle(self, inputs):
        c, comp, min_size = inputs
        out = merge_small(comp, c, min_size)
        labels, k, merged = merge_small_oracle(comp.labels, c, min_size)
        assert np.array_equal(out.labels, labels)
        assert (out.k, out.merged) == (k, merged)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_singleton_inputs())
    def test_singleton_pass_matches_oracle(self, inputs):
        c, comp, min_size = inputs
        out = merge_small(comp, c, min_size)
        labels, k, merged = merge_small_oracle(comp.labels, c, min_size)
        assert np.array_equal(out.labels, labels)
        assert (out.k, out.merged) == (k, merged)

    @staticmethod
    def _merge_each_threshold(x, cfg, thresholds):
        # merge_small against the oracle on each threshold's components of
        # the pipeline's consensus; returns the components and the merges
        c = accumulate(ensemble_runs(build_artifacts(x), cfg).partitions, len(x))
        tree = spanning_tree(c)
        min_size = math.ceil(c.n**cfg.consensus.a)
        comps, merges = [], 0
        for theta in thresholds:
            comp = threshold_components(tree, theta)
            out = merge_small(comp, c, min_size, threshold=theta)
            labels, k, merged = merge_small_oracle(comp.labels, c, min_size)
            assert np.array_equal(out.labels, labels), theta
            assert (out.k, out.merged) == (k, merged)
            comps.append(comp)
            merges += comp.k - k
        return comps, merges

    def test_merge_small_matches_oracle_on_iris(self):
        x = read_data_csv(DATA / "iris.csv")
        cfg = PipelineConfig(consensus=ConsensusConfig(runs=10))
        _, merges = self._merge_each_threshold(x, cfg, cfg.consensus.thresholds)
        assert merges > 0

    def test_merge_small_matches_oracle_past_one_row_chunk(self):
        # uniform draws of up to 300 generators on 400 uniform points leave
        # most points singletons at the high thresholds, so the singleton
        # scan crosses its _PRODUCT_ROWS-row chunks
        x = np.random.default_rng(0).random((400, 3))
        cfg = PipelineConfig(method="uniform", k_max=300, consensus=ConsensusConfig(runs=10))
        comps, merges = self._merge_each_threshold(x, cfg, (0.6, 0.8, 0.95))
        assert merges > 0
        singletons = [int((np.bincount(comp.labels) == 1).sum()) for comp in comps]
        assert max(singletons) > _PRODUCT_ROWS, singletons

    @pytest.mark.parametrize("runs", [1, 15, 16, 17, 35])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_counts_match_pair_counting(self, runs, data):
        # raw ids (unordered, negative, gappy) counted as int64, and the
        # same runs compacted to ids 0..k-1 in uint8, in row blocks of the
        # module's height, of one and five rows, and of n - 1, n and n + 1
        # rows around the whole matrix
        n = data.draw(st.integers(1, 48))
        low = data.draw(st.integers(-3, 3))
        ids = st.integers(low, low + data.draw(st.integers(0, 8)))
        raws = np.array([data.draw(st.lists(ids, min_size=n, max_size=n)) for _ in range(runs)])
        brute = sum((p[:, None] == p[None, :]).astype(np.int64) for p in raws)
        compact = np.array([_p(raw).labels for raw in raws], np.uint8)
        cut = data.draw(st.integers(0, runs))
        for labels in (raws, compact):
            for height in (_PRODUCT_ROWS, 1, 5, max(1, n - 1), n, n + 1):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(consensus, "_PRODUCT_ROWS", height)
                    counts = co_membership_counts(labels, n)
                    split = co_membership_counts(labels[:cut], n) + co_membership_counts(
                        labels[cut:], n
                    )
                assert counts.dtype == np.uint8
                assert np.array_equal(counts, brute)
                assert np.array_equal(split, brute)

    @pytest.mark.parametrize(
        "widths",
        [
            [4, 3, 5],
            [4, 3, 6],
            [5, 7, 1],
            [12],  # a single run with k = n
            [12, 12, 1, 12],  # full runs around a one-cluster run
            [1] * 30,  # many one-cluster runs
            [2, 3],
            [2, 3, 1],
            [2, 4],
            [1] * 256,  # R = 256: the first uint16 counts
            [3] * 200 + [1] * 57,  # R = 257
            [1] * 255,  # R = 255: the last uint8 counts
            [256, 3],  # largest id 255: the last uint8 label stack
            [257, 1],  # largest id 256: a uint16 label stack
            [300, 2, 300],  # ids past 255 around a two-cluster run
        ],
    )
    def test_counts_at_column_budget_edges(self, widths, monkeypatch):
        # runs of the given numbers of clusters over n = max(12, widths)
        # points, at the edges of the count type, the label type and the
        # row blocks: blocks of the module's height (more than n up to
        # n = 255), of one and five rows, and of n - 1, n and n + 1 rows.
        # The raw ids are counted as int64, and the same runs compacted to
        # ids 0..k-1 in the narrowest unsigned type (uint16 past id 255).
        n = max(12, *widths)
        rng = np.random.default_rng(len(widths))
        raws = []
        for k in widths:
            raw = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
            raws.append(3 * rng.permutation(raw) - 7)  # gappy, negative raw ids
        raws = np.array(raws)
        brute = sum((p[:, None] == p[None, :]).astype(np.int64) for p in raws)
        compact = np.array([_p(raw).labels for raw in raws], np.min_scalar_type(max(widths) - 1))
        assert compact.dtype == (np.uint8 if max(widths) <= 256 else np.uint16)
        for labels in (raws, compact):
            for height in (_PRODUCT_ROWS, 1, 5, n - 1, n, n + 1):
                monkeypatch.setattr(consensus, "_PRODUCT_ROWS", height)
                counts = co_membership_counts(labels, n)
                assert counts.dtype == (np.uint8 if len(labels) <= 255 else np.uint16)
                assert np.array_equal(counts, brute)
                for cut in range(0, len(labels) + 1, max(1, len(labels) // 16)):
                    head = co_membership_counts(labels[:cut], n).astype(np.int64)
                    assert np.array_equal(head + co_membership_counts(labels[cut:], n), brute)


class TestCandidateClusterings:
    def test_dedup_keeps_lowest_threshold(self):
        counts = np.array(
            [
                [10, 9, 1, 1],
                [9, 10, 1, 1],
                [1, 1, 10, 9],
                [1, 1, 9, 10],
            ]
        )
        c = ConsensusMatrix(counts, 10)
        cfg = ConsensusConfig(runs=10, tau=0.6, thresholds=(0.6, 0.7), a=0.2)
        cands = candidate_clusterings(c, cfg)
        assert len(cands) == 1
        assert cands[0].threshold == 0.6
        assert cands[0].k == 2

    def test_perfect_blocks_survive_any_threshold(self):
        labels = np.repeat([0, 1, 2], 3)
        c = ConsensusMatrix(5 * (labels[:, None] == labels[None, :]), 5)
        cfg = ConsensusConfig(runs=5, thresholds=(0.6, 0.8, 0.95), a=0.4)
        cands = candidate_clusterings(c, cfg)
        assert len(cands) == 1
        assert cands[0].k == 3

    def test_no_candidates_raises_with_table(self):
        c = ConsensusMatrix(3 * np.eye(6, dtype=int), 3)  # all singletons at any threshold
        cfg = ConsensusConfig(runs=3, thresholds=(0.6, 0.9), a=0.5)
        with pytest.raises(NoCandidates) as err:
            candidate_clusterings(c, cfg)
        assert err.value.k_by_threshold == {0.6: 1, 0.9: 1}

    def test_k_one_discarded_but_others_kept(self):
        # low threshold glues everything; high threshold keeps two blocks
        counts = np.array(
            [
                [10, 9, 5, 5],
                [9, 10, 5, 5],
                [5, 5, 10, 9],
                [5, 5, 9, 10],
            ]
        )
        c = ConsensusMatrix(counts, 10)
        cfg = ConsensusConfig(runs=10, tau=0.4, thresholds=(0.4, 0.8), a=0.2)
        cands = candidate_clusterings(c, cfg)
        assert [cand.k for cand in cands] == [2]
        assert cands[0].threshold == 0.8


    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        _tied_consensus(max_n=30),
        st.sets(st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95]), min_size=1),
        st.sampled_from([0.2, 0.5, 0.8]),
    )
    def test_matches_oracle(self, c, thresholds, a):
        cfg = ConsensusConfig(runs=c.runs, tau=0.05, thresholds=tuple(sorted(thresholds)), a=a)
        expected, k_by_threshold = candidate_clusterings_oracle(
            c.entries, cfg.thresholds, math.ceil(c.n**a)
        )
        if not expected:
            with pytest.raises(NoCandidates) as err:
                candidate_clusterings(c, cfg)
            assert err.value.k_by_threshold == k_by_threshold
            return
        cands = candidate_clusterings(c, cfg)
        assert [(x.threshold, x.k, x.merged) for x in cands] == [e[:3] for e in expected]
        for cand, (*_, labels) in zip(cands, expected):
            assert np.array_equal(cand.labels, labels)


    def test_duplicate_under_other_numbering_dropped(self):
        # θ = 0.6 links 0 to {4, 5}: labels [0, 1, 1, 1, 0, 0].  At θ = 0.8,
        # {0} is cut off, numbered first, and merges into {4, 5} (its
        # strongest link, 0.7), which comes after {1, 2, 3}: labels
        # [1, 0, 0, 0, 1, 1], the same partition under other numbers
        counts = np.full((6, 6), 1)
        for block in ([1, 2, 3], [4, 5]):
            counts[np.ix_(block, block)] = 9
        counts[0, 4] = counts[4, 0] = 7
        np.fill_diagonal(counts, 10)
        c = ConsensusMatrix(counts, 10)
        cfg = ConsensusConfig(runs=10, tau=0.6, thresholds=(0.6, 0.8), a=0.3)
        tree = spanning_tree(c)
        low, high = (merge_small(threshold_components(tree, t), c, 2, t) for t in (0.6, 0.8))
        assert low.labels.tolist() == [0, 1, 1, 1, 0, 0]
        assert high.labels.tolist() == [1, 0, 0, 0, 1, 1]
        cands = candidate_clusterings(c, cfg)
        assert [(x.threshold, x.k) for x in cands] == [(0.6, 2)]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        _tied_consensus(),
        st.sets(st.sampled_from([0.05, 0.25, 0.5, 0.75, 0.95]), min_size=1),
        st.sampled_from([0.2, 0.5, 0.8]),
    )
    def test_dedup_matches_ari_rule(self, c, thresholds, a):
        cfg = ConsensusConfig(runs=c.runs, tau=0.05, thresholds=tuple(sorted(thresholds)), a=a)
        tree = spanning_tree(c)
        every = [
            merge_small(threshold_components(tree, t), c, math.ceil(c.n**a), threshold=t)
            for t in cfg.thresholds
        ]
        expected = dedup_by_ari_oracle(every)
        if not expected:
            with pytest.raises(NoCandidates):
                candidate_clusterings(c, cfg)
            return
        cands = candidate_clusterings(c, cfg)
        assert [(x.threshold, x.k, x.merged) for x in cands] == [
            (x.threshold, x.k, x.merged) for x in expected
        ]
        for cand, ref in zip(cands, expected):
            assert np.array_equal(cand.labels, ref.labels)


class TestConfig:
    def test_default_grid(self):
        assert default_threshold_grid(0.6) == (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95)
        assert ConsensusConfig().thresholds == default_threshold_grid(0.6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ConsensusConfig(tau=0.0)
        with pytest.raises(ConfigError):
            ConsensusConfig(a=1.0)
        with pytest.raises(ConfigError):
            ConsensusConfig(thresholds=(0.7, 0.6))
        with pytest.raises(ConfigError):
            ConsensusConfig(tau=0.6, thresholds=(0.5,))
        with pytest.raises(ConfigError):
            ConsensusConfig(tau=0.97)  # default grid tau..0.95 would be empty
        with pytest.raises(ConfigError):
            ConsensusConfig(thresholds=(float("nan"),))  # every comparison with nan is false
        with pytest.raises(ConfigError):
            ConsensusConfig(thresholds=(0.7, float("nan")))

    @pytest.mark.parametrize("bad", [0, 2.7, float("nan"), "3"])
    def test_runs_must_be_a_whole_number(self, bad):
        # 2.7 used to become 2 runs without a word
        with pytest.raises(ConfigError, match="runs"):
            ConsensusConfig(runs=bad)

    def test_consensus_matrix_validation(self):
        with pytest.raises(ConfigError):
            ConsensusMatrix(np.array([[10, 3], [3, 9]]), 10)  # bad diagonal


class TestBlockedChecks:
    # n rows in blocks of `step` rows, the last block partial; each pair
    # lies in the last block alone, or on either side of the first edge
    n = 700
    step = _CHECK_ENTRIES // n
    pairs = [(n - 1, n - 2), (n - 1, n - n % step), (step - 1, step), (step, step + 1)]

    def _valid(self):
        labels = np.arange(self.n) % 7
        counts = 10 * (labels[:, None] == labels[None, :])
        counts[counts == 0] = 4
        return counts

    def test_layout(self):
        assert self.n % self.step != 0 and self.n > 2 * self.step

    @pytest.mark.parametrize("i,j", pairs)
    def test_asymmetric_pair(self, i, j):
        counts = self._valid()
        counts[i, j], counts[j, i] = 3, 5
        with pytest.raises(ConfigError, match="symmetric"):
            ConsensusMatrix(counts, 10)

    def test_valid_matrix_allocates_little(self):
        labels = np.arange(1000) % 9
        counts = (labels[:, None] == labels[None, :]).astype(np.uint8)
        tracemalloc.start()
        try:
            ConsensusMatrix(counts, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@st.composite
def _counts_and_grid_thresholds(draw):
    # a few distinct partitions, each repeated: R up to 480 at little cost,
    # so the counts reach uint16; thresholds exactly on the 1/R grid and one
    # ulp either side of it
    n = draw(st.integers(2, 30))
    ids = st.integers(0, draw(st.integers(0, n - 1)))
    distinct = [
        draw(st.lists(ids, min_size=n, max_size=n)) for _ in range(draw(st.integers(1, 4)))
    ]
    parts = [p for p in distinct for _ in range(draw(st.integers(1, 120)))]
    if len(parts) < 2:
        parts *= 2
    c = accumulate(np.array(parts), n)
    runs = c.runs
    present = np.unique(c.counts[~np.eye(n, dtype=bool)])
    pool = sorted({1, runs - 1} | {int(v) for v in present if 0 < v < runs})
    grid = draw(st.sets(st.one_of(st.sampled_from(pool), st.integers(1, runs - 1)),
                        min_size=1, max_size=3))
    thresholds = set()
    for t in grid:
        theta = t / runs
        side = draw(st.sampled_from([-np.inf, None, np.inf]))
        thresholds.add(theta if side is None else float(np.nextafter(theta, side)))
    return c, tuple(sorted(thresholds)), draw(st.sampled_from([0.2, 0.5, 0.8]))


class TestCountsAgainstProportionOracles:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_counts_and_grid_thresholds())
    def test_selection_on_counts_matches_oracles(self, inputs):
        c, thresholds, a = inputs
        min_size = math.ceil(c.n**a)
        proportions = c.counts / c.runs
        off_diagonal = ~np.eye(c.n, dtype=bool)
        tree = spanning_tree(c)
        for theta in thresholds:
            comp = threshold_components(tree, theta)
            assert np.array_equal(comp.labels, bfs_components((proportions >= theta) & off_diagonal))
            out = merge_small(comp, c, min_size, threshold=theta)
            labels, k, merged = merge_small_oracle(comp.labels, proportions, min_size)
            assert np.array_equal(out.labels, labels)
            assert (out.k, out.merged) == (k, merged)
        cfg = ConsensusConfig(runs=c.runs, tau=thresholds[0], thresholds=thresholds, a=a)
        expected, k_by_threshold = candidate_clusterings_oracle(
            proportions, cfg.thresholds, min_size
        )
        if not expected:
            with pytest.raises(NoCandidates) as err:
                candidate_clusterings(c, cfg)
            assert err.value.k_by_threshold == k_by_threshold
            return
        cands = candidate_clusterings(c, cfg)
        assert [(x.threshold, x.k, x.merged) for x in cands] == [e[:3] for e in expected]
        for cand, (*_, labels) in zip(cands, expected):
            assert np.array_equal(cand.labels, labels)


class TestCounts:
    @pytest.mark.parametrize(
        "runs, dtype", [(255, np.uint8), (256, np.uint16), (65536, np.uint32)]
    )
    def test_count_type_holds_runs(self, runs, dtype):
        # every pair shares a cluster in every run, so each count is runs:
        # uint8's largest value at 255, one past uint8 and uint16 at 256
        # and 65 536
        c = accumulate(np.zeros((runs, 4), np.uint8), 4)
        assert c.counts.dtype == dtype
        assert (c.counts == runs).all()
        assert np.array_equal(c.entries, np.ones((4, 4)))

    def test_entries_are_float64_quotients(self):
        rng = np.random.default_rng(4)
        c = _random_consensus(rng, 15, runs=7)
        assert c.entries.dtype == np.float64
        assert np.array_equal(c.entries, c.counts.astype(np.float64) / 7)

    def test_matrix_owns_its_counts(self):
        counts = np.array([[2, 1], [1, 2]], dtype=np.uint8)
        c = ConsensusMatrix(counts, 2)
        assert counts.flags.writeable
        counts[0, 1] = counts[1, 0] = 0
        assert c.counts[0, 1] == 1
        assert not c.counts.flags.writeable
        wide = 2 * np.eye(3, dtype=np.int64)
        ConsensusMatrix(wide, 2)
        assert wide.flags.writeable

    def test_accumulate_shares_the_built_counts(self, monkeypatch):
        built = []

        def counts_of(labels, n):
            built.append(co_membership_counts(labels, n))
            return built[-1]

        monkeypatch.setattr(consensus, "co_membership_counts", counts_of)
        c = accumulate(np.array([[0, 0, 1], [0, 1, 1]]), 3)
        assert c.counts is built[0]
        assert not c.counts.flags.writeable

    def test_read_only_counts_of_the_count_type_are_shared(self):
        counts = np.array([[2, 1], [1, 2]], dtype=np.uint8)
        counts.setflags(write=False)
        assert ConsensusMatrix(counts, 2).counts is counts

    @pytest.mark.parametrize(
        "dtype, runs, count_type",
        [(np.int64, 2, np.uint8), (np.uint16, 2, np.uint8), (np.int16, 300, np.uint16)],
    )
    @pytest.mark.parametrize("writeable", [True, False])
    def test_other_counts_are_copied(self, dtype, runs, count_type, writeable):
        # a writable array, or one of another type than the count type
        # (wider, or signed), is copied, and the caller's array keeps its flags
        counts = np.full((3, 3), 1, dtype=dtype)
        np.fill_diagonal(counts, runs)
        counts.setflags(write=writeable)
        c = ConsensusMatrix(counts, runs)
        assert c.counts.dtype == count_type
        assert not np.shares_memory(c.counts, counts)
        assert not c.counts.flags.writeable
        assert counts.flags.writeable == writeable
        assert np.array_equal(c.counts, counts)

    def test_counts_validation(self):
        ConsensusMatrix(np.array([[3, 1], [1, 3]]), 3)
        with pytest.raises(ShapeMismatch):
            ConsensusMatrix(np.zeros((2, 3), dtype=np.uint8), 3)
        with pytest.raises(ConfigError, match="integers"):
            ConsensusMatrix(np.array([[3.0, 1.0], [1.0, 3.0]]), 3)
        with pytest.raises(ConfigError, match="symmetric"):
            ConsensusMatrix(np.array([[3, 1], [2, 3]]), 3)
        with pytest.raises(ConfigError, match="diagonal"):
            ConsensusMatrix(np.array([[3, 1], [1, 2]]), 3)
        narrow = np.full((2, 2), 255, dtype=np.uint8)  # cannot hold runs = 300
        narrow.setflags(write=False)
        with pytest.raises(ConfigError, match="diagonal"):
            ConsensusMatrix(narrow, 300)
        with pytest.raises(ConfigError, match="lie in"):
            ConsensusMatrix(np.array([[3, 4], [4, 3]]), 3)
        with pytest.raises(ConfigError, match="lie in"):
            ConsensusMatrix(np.array([[3, -1], [-1, 3]]), 3)
        with pytest.raises(ConfigError, match="runs"):
            ConsensusMatrix(np.zeros((2, 2), dtype=np.uint8), 0)

    def test_accumulate_holds_counts_and_one_batch(self):
        # n = 1000, R = 200 runs of 8 clusters: the uint8 counts (n² bytes)
        # and one bool comparison block of _PRODUCT_ROWS rows, 1.3 n² in
        # all.  Float32 one-hot batches of 256 columns took 3.3 n², batches
        # of up to n columns 6.7 n², and float64 counts beside a whole
        # n x n float32 product about 17 n².
        n = 1000
        labels = np.random.default_rng(0).integers(0, 8, size=(200, n))
        tracemalloc.start()
        try:
            accumulate(labels, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * n * n

    def test_accumulate_copies_no_labels_and_holds_one_batch(self):
        # the same runs as int64 ids: besides the uint8 counts, the labels
        # are read in place, and every comparison reuses one bool block.
        # An int64 n x (runs in batch) index array and a previous one-hot
        # batch still alive while the next was allocated took about 9 n²;
        # the counts are the same either way.
        n = 1000
        labels = np.random.default_rng(0).integers(0, 8, size=(200, n))
        tracemalloc.start()
        try:
            c = accumulate(labels, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * n * n
        head = sum((p[:60, None] == p[None, :60]).astype(int) for p in labels)
        assert np.array_equal(c.counts[:60, :60], head)

    def test_counts_take_n_squared_bytes_and_linear_transients(self):
        # n = 2000, R = 200 runs of 8 clusters as int64 ids, read in place:
        # the uint8 counts (n² bytes) and one n x _PRODUCT_ROWS bool block,
        # plus numpy's buffers for the broadcast comparison (two operands
        # of 8192 int64, 128 kB) and small objects: 138.8-139.9 kB above
        # the arrays at n = 500 to 3000 and R = 20 to 200.  The bound
        # allows 192 kB, below the 200 n bytes of the uint8 label stack
        # that runs given as Partitions took.  Float32 one-hot batches
        # with a product block and its cast took n² + 2.3 x 4 n 256 bytes,
        # a batch of n columns n² + 7.9 of those units.
        n = 2000
        labels = np.random.default_rng(0).integers(0, 8, size=(200, n))
        tracemalloc.start()
        try:
            counts = co_membership_counts(labels, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n + n * _PRODUCT_ROWS + (192 << 10)
        assert counts.dtype == np.uint8 and not counts.flags.writeable

    def test_stack_is_counted_in_place(self):
        # the same runs as the ensemble holds them, one read-only uint8
        # R x n array: read as it is, with numpy's uint8 comparison buffers
        # (17-22 kB per call) and small objects, 26.1-26.3 kB measured, in
        # 64 kB, and with the counts of the int64 ids; a prefix of no runs,
        # or labels of another n, are refused
        n = 2000
        raws = np.random.default_rng(0).integers(0, 8, size=(200, n))
        lab = raws.astype(np.uint8)
        lab.setflags(write=False)
        tracemalloc.start()
        try:
            c = accumulate(lab, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n + n * _PRODUCT_ROWS + (64 << 10)
        assert c.runs == 200
        assert np.array_equal(c.counts, co_membership_counts(raws, n))
        with pytest.raises(ShapeMismatch):
            accumulate(lab, n - 1)
        with pytest.raises(ConfigError):
            accumulate(lab[:0], n)
