import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dppcluster import (
    Clustering,
    ConfigError,
    DegenerateScatter,
    NoCandidates,
    SingletonClusterWarning,
    build_rbf_kernel,
    estimate_bandwidth,
    kvi,
    scatter,
    similarity_ratio,
)
from dppcluster import validation
from dppcluster.consensus import BATCH_COLUMNS
from dppcluster.validation import CandidateScore, ScatterReport, scatter_reports
from oracles import kvi_oracle, linear_kernel_scatter


def _clus(labels, threshold=None):
    labels = np.asarray(labels)
    return Clustering(labels, int(labels.max()) + 1, threshold=threshold)


class TestScatter:
    def test_all_identical_points(self):
        # all-ones kernel: zero spread everywhere
        L = np.ones((6, 6))
        with pytest.warns(SingletonClusterWarning):
            rep = scatter(L, _clus([0, 0, 0, 0, 0, 1]))
        assert rep.v_s == 0.0
        assert np.all(rep.b_pairwise == 0.0)

    def test_linear_kernel_matches_coordinates(self):
        # dot-product kernel: the feature map is the identity, so every
        # statistic has a closed coordinate form
        rng = np.random.default_rng(0)
        for trial in range(5):
            n = int(rng.integers(10, 50))
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            labels = rng.integers(0, 3, size=n)
            labels[:3] = [0, 1, 2]
            expected = linear_kernel_scatter(x, labels)
            rep = scatter(x @ x.T, _clus(labels))
            assert rep.v_s == pytest.approx(expected["v_s"], abs=1e-9)
            assert rep.w_per_cluster == pytest.approx(expected["w"], abs=1e-9)
            assert rep.w_v == pytest.approx(expected["w_v"], abs=1e-9)
            assert rep.b_pairwise == pytest.approx(expected["b2"], abs=1e-9)
            assert rep.b_v == pytest.approx(expected["b_v"], abs=1e-9)

    def test_coinciding_cluster_means_give_zero_between(self):
        # clusters {-1, 1} and {-2, 2} share the centroid 0
        x = np.array([-1.0, 1.0, -2.0, 2.0])
        rep = scatter(np.outer(x, x), _clus([0, 0, 1, 1]))
        assert rep.b_pairwise[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_b_pairwise_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 2))
        L = build_rbf_kernel(x, estimate_bandwidth(x))
        labels = rng.integers(0, 3, size=20)
        labels[:3] = [0, 1, 2]
        rep = scatter(L, _clus(labels))
        assert np.array_equal(rep.b_pairwise, rep.b_pairwise.T)
        assert np.all(np.diag(rep.b_pairwise) == 0.0)
        assert np.all(rep.w_per_cluster >= 0.0)

    def test_singleton_cluster_warns_and_scores_zero(self):
        x = np.array([0.0, 0.5, 9.0])
        L = build_rbf_kernel(x, estimate_bandwidth(x))
        with pytest.warns(SingletonClusterWarning):
            rep = scatter(L, _clus([0, 0, 1]))
        assert rep.w_per_cluster[1] == 0.0

    def test_requires_two_clusters(self):
        with pytest.raises(ConfigError):
            scatter(np.eye(3), _clus([0, 0, 0]))

    def test_kernel_matrix_shape_mismatch_matches_dense(self):
        x = np.random.default_rng(5).normal(size=(6, 2))
        L = build_rbf_kernel(x, estimate_bandwidth(x))
        short = _clus([0, 0, 1, 1, 1])
        with pytest.raises(ConfigError) as implicit:
            scatter(L, short)
        with pytest.raises(ConfigError) as dense:
            scatter(L.entries, short)
        assert str(implicit.value) == str(dense.value) == "kernel is (6, 6), labels have length 5"


@st.composite
def _scatter_inputs(draw, count=1):
    # data and ``count`` clusterings of it, each with k from 2 up to n: many
    # singleton clusters at the top of the range.  n crosses the 64-row
    # blocks of the scatter pass.
    n = draw(st.integers(2, 150))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(n, p)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    clusterings = []
    for _ in range(count):
        k = draw(st.integers(2, n))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        clusterings.append(_clus(rng.permutation(labels)))
    return x, clusterings


def _assert_reports_close(a, b, rtol):
    assert a.n == b.n and np.array_equal(a.sizes, b.sizes)
    for field in ("v_s", "w_per_cluster", "w_v", "b_pairwise", "b_v"):
        np.testing.assert_allclose(getattr(a, field), getattr(b, field), rtol=rtol, atol=0)


class TestStreamedScatterProperties:
    @pytest.mark.filterwarnings("ignore::dppcluster.errors.SingletonClusterWarning")
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_scatter_inputs())
    def test_matches_coordinate_oracle(self, inputs):
        x, (clus,) = inputs
        scale = max(1.0, float((x**2).sum(axis=1).max()))  # kernel entries reach this
        expected = linear_kernel_scatter(x, clus.labels)
        rep = scatter(x @ x.T, clus)
        assert rep.v_s == pytest.approx(expected["v_s"], abs=1e-9 * scale)
        assert rep.w_per_cluster == pytest.approx(expected["w"], abs=1e-9 * scale)
        assert rep.b_pairwise == pytest.approx(expected["b2"], abs=1e-9 * scale)
        assert rep.b_v == pytest.approx(expected["b_v"], abs=1e-9 * scale)
        assert np.all(rep.w_per_cluster[rep.sizes == 1] == 0.0)

    @pytest.mark.filterwarnings("ignore::dppcluster.errors.SingletonClusterWarning")
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_scatter_inputs(count=3))
    def test_implicit_kernel_and_batches_match_dense_single(self, inputs):
        # each candidate scored from the implicit kernel beside the others
        # scores as it does alone on the dense kernel of the same entries,
        # the expanded ones the scatter pass reads
        x, clusterings = inputs
        L = build_rbf_kernel(x, estimate_bandwidth(x))
        entries = np.vstack([L.expanded_block(top, top + 64)[0] for top in range(0, L.n, 64)])
        for clus, rep in zip(clusterings, scatter_reports(L, clusterings)):
            dense = scatter(entries, clus)
            _assert_reports_close(scatter(L, clus), dense, rtol=1e-12)
            _assert_reports_close(rep, dense, rtol=1e-12)
            assert np.all(dense.w_per_cluster[dense.sizes == 1] == 0.0)


    def test_many_clusters_split_into_bounded_passes(self):
        # 40 candidates of 20 clusters: 801 indicator columns at n = 400,
        # scored in passes of at most BATCH_COLUMNS columns, so E and KE
        # together stay near two n x BATCH_COLUMNS arrays; passes of up to
        # n + 1 columns held 3.8 MB, and one pass 5.8 MB
        n, m, k = 400, 40, 20
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 2))
        L = build_rbf_kernel(x, estimate_bandwidth(x))
        cands = [
            _clus(rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, n - k)])))
            for _ in range(m)
        ]
        tracemalloc.start()
        try:
            reports = scatter_reports(L, cands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 2 * 8 * n * BATCH_COLUMNS
        dense = L.entries
        for clus, rep in zip(cands, reports):
            _assert_reports_close(rep, scatter(dense, clus), rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::dppcluster.errors.SingletonClusterWarning")
    def test_clusterings_wider_than_the_budget_get_their_own_pass(self, monkeypatch):
        # at a budget of 5 columns: 2 + 2 fill the first pass beside the
        # whole sample's column, 8 clusters take a pass alone, and 3 + 2
        # fill the last; each clustering scores as it does alone
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 2))
        L = build_rbf_kernel(x, estimate_bandwidth(x))
        cands = [
            _clus(rng.permutation(np.concatenate([np.arange(k), rng.integers(0, k, 30 - k)])))
            for k in (2, 2, 8, 3, 2)
        ]
        alone = [scatter(L, clus) for clus in cands]
        widths = []
        pass_of = validation._scatter_pass

        def counted(mat, n, parts):
            widths.append(sum(k for _, k, _ in parts))
            return pass_of(mat, n, parts)

        monkeypatch.setattr(validation, "BATCH_COLUMNS", 5)
        monkeypatch.setattr(validation, "_scatter_pass", counted)
        reports = scatter_reports(L, cands)
        assert widths == [5, 8, 5]
        for rep, single in zip(reports, alone):
            _assert_reports_close(rep, single, rtol=1e-12)


class TestSimilarityRatio:
    def test_zero_within_gives_one(self):
        # two duplicate groups: perfectly compact clusters
        x = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        rep = scatter(np.outer(x, x), _clus([0, 0, 0, 1, 1, 1]))
        assert rep.w_v == 0.0
        assert similarity_ratio(rep) == 1.0

    def test_half_limit_when_within_equals_between(self):
        rep = ScatterReport(
            v_s=1.0,
            w_per_cluster=np.array([1.0, 1.0]),
            w_v=0.5,
            b_pairwise=np.array([[0.0, 0.25], [0.25, 0.0]]),
            b_v=0.5,
            sizes=np.array([500_000, 500_000]),
            n=1_000_000,
        )
        assert similarity_ratio(rep) == pytest.approx(0.5, abs=1e-5)

    def test_frozen_hand_fixture(self):
        # 1-D {0,1,2} vs {10,11,12} under the dot-product kernel:
        # V_S = 5, W_V = 2/15, B_V = 10, so SR = 1 - (6/5)(2/152) = 187/190
        x = np.array([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
        rep = scatter(np.outer(x, x), _clus([0, 0, 0, 1, 1, 1]))
        assert similarity_ratio(rep) == pytest.approx(187.0 / 190.0, abs=1e-12)

    def test_degenerate_scatter(self):
        rep = ScatterReport(
            v_s=0.0,
            w_per_cluster=np.zeros(2),
            w_v=0.0,
            b_pairwise=np.zeros((2, 2)),
            b_v=0.0,
            sizes=np.array([2, 2]),
            n=4,
        )
        with pytest.raises(DegenerateScatter):
            similarity_ratio(rep)


class TestKvi:
    # 1-D fixture 0,1 | 4,5 | 8,9 | 12,13 under the dot-product kernel.
    # Candidates: K=2 halves, K=3, K=4 pairs.  Hand arithmetic gives
    # alpha = B_tilde(K=4) = 4.0625 and index values 2.0625 / 2.2690972 /
    # 4.5703125, so the K=2 candidate wins.
    X8 = np.array([0.0, 1.0, 4.0, 5.0, 8.0, 9.0, 12.0, 13.0])

    def _candidates(self):
        L = np.outer(self.X8, self.X8)
        b = _clus([0, 0, 0, 0, 1, 1, 1, 1], threshold=0.6)
        c = _clus([0, 0, 1, 1, 2, 2, 2, 2], threshold=0.7)
        a = _clus([0, 0, 1, 1, 2, 2, 3, 3], threshold=0.9)
        return [(cl, scatter(L, cl)) for cl in (b, c, a)]

    def test_frozen_hand_fixture(self):
        res = kvi(self._candidates())
        assert res.alpha == pytest.approx(4.0625, abs=1e-9)
        by_k = {s.k: s for s in res.scores}
        assert by_k[2].kvi == pytest.approx(2.0625, abs=1e-9)
        assert by_k[3].kvi == pytest.approx(2.2690972222222223, abs=1e-9)
        assert by_k[4].kvi == pytest.approx(4.5703125, abs=1e-9)
        assert res.chosen.k == 2

    def test_single_candidate_chosen(self):
        res = kvi(self._candidates()[:1])
        assert res.chosen.k == 2
        assert len(res.scores) == 1

    def test_smaller_within_wins_at_equal_between(self):
        # identical between-cluster structure, one candidate strictly tighter
        base = ScatterReport(
            v_s=1.0,
            w_per_cluster=np.array([0.3, 0.3]),
            w_v=0.3,
            b_pairwise=np.array([[0.0, 4.0], [4.0, 0.0]]),
            b_v=2.0,
            sizes=np.array([4, 4]),
            n=8,
        )
        tighter = ScatterReport(
            v_s=1.0,
            w_per_cluster=np.array([0.1, 0.1]),
            w_v=0.1,
            b_pairwise=np.array([[0.0, 4.0], [4.0, 0.0]]),
            b_v=2.0,
            sizes=np.array([4, 4]),
            n=8,
        )
        loose = _clus([0, 0, 0, 0, 1, 1, 1, 1], threshold=0.6)
        tight = _clus([0, 0, 1, 1, 0, 0, 1, 1], threshold=0.7)
        res = kvi([(loose, base), (tight, tighter)])
        assert res.chosen is tight

    def test_zero_between_distance_excluded_with_reason(self):
        # coinciding centroids: that candidate must be excluded, not scored
        x = np.array([-1.0, 1.0, -2.0, 2.0, 10.0, 11.0, 12.0, 13.0])
        L = np.outer(x, x)
        degenerate = _clus([0, 0, 1, 1, 2, 2, 2, 2], threshold=0.6)
        healthy = _clus([0, 0, 0, 0, 1, 1, 1, 1], threshold=0.7)
        res = kvi([(degenerate, scatter(L, degenerate)), (healthy, scatter(L, healthy))])
        assert res.chosen is healthy
        excluded = [s for s in res.scores if s.excluded]
        assert len(excluded) == 1
        assert "zero" in excluded[0].reason

    def test_all_excluded_raises(self):
        x = np.array([-1.0, 1.0, -2.0, 2.0])
        L = np.outer(x, x)
        degenerate = _clus([0, 0, 1, 1], threshold=0.6)
        with pytest.raises(NoCandidates):
            kvi([(degenerate, scatter(L, degenerate))])

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(15, 2))
        L = x @ x.T
        labels = rng.integers(0, 3, size=15)
        labels[:6] = [0, 1, 2, 0, 1, 2]  # no singleton clusters
        rep1 = scatter(L, _clus(labels))
        relabeled = (labels + 1) % 3
        rep2 = scatter(L, _clus(relabeled))
        assert similarity_ratio(rep1) == pytest.approx(similarity_ratio(rep2), abs=1e-12)
        c1 = _clus(labels, threshold=0.6)
        c2 = _clus(relabeled, threshold=0.6)
        r1 = kvi([(c1, rep1)])
        r2 = kvi([(c2, rep2)])
        assert r1.scores[0].kvi == pytest.approx(r2.scores[0].kvi, abs=1e-12)

    def test_tie_breaks_prefer_larger_k_then_lower_threshold(self):
        rep_a = ScatterReport(
            v_s=1.0,
            w_per_cluster=np.array([0.0, 0.0]),
            w_v=0.0,
            b_pairwise=np.array([[0.0, 1.0], [1.0, 0.0]]),
            b_v=1.0,
            sizes=np.array([3, 3]),
            n=6,
        )
        rep_b = ScatterReport(
            v_s=1.0,
            w_per_cluster=np.array([0.0, 0.0, 0.0]),
            w_v=0.0,
            b_pairwise=np.array(
                [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
            ),
            b_v=1.0,
            sizes=np.array([2, 2, 2]),
            n=6,
        )
        # equal index values are impossible here (different B_tilde), so force
        # a tie by duplicating one candidate at two thresholds
        c1 = _clus([0, 0, 0, 1, 1, 1], threshold=0.6)
        c2 = _clus([0, 0, 0, 1, 1, 1], threshold=0.8)
        res = kvi([(c2, rep_a), (c1, rep_a)])
        assert res.chosen is c1  # same value, same K: lower threshold wins


@st.composite
def _kvi_candidates(draw):
    # candidates sharing three reports on a coarse grid of values, at few
    # thresholds: k < 2, zero between-cluster distances and exact index
    # ties (in value, in value and k, in all three) all occur often
    n = 8
    grid = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    reports = []
    for _ in range(3):
        k = draw(st.sampled_from([2, 4, 3, 1]))
        pairs = k * (k - 1) // 2
        b = np.zeros((k, k))
        if draw(st.booleans()):  # B_tilde = k (k - 1) / d = 4, exactly at k = 2 and 4
            b[np.triu_indices(k, 1)] = k * (k - 1) / 4
        else:
            b[np.triu_indices(k, 1)] = draw(st.lists(grid, min_size=pairs, max_size=pairs))
        labels = np.arange(n) % k
        report = ScatterReport(
            v_s=1.0,
            w_per_cluster=np.zeros(k),
            w_v=draw(st.sampled_from([0.0, 0.5])),
            b_pairwise=b + b.T,
            b_v=draw(st.sampled_from([0.0, 1.0, 2.0])),
            sizes=np.bincount(labels),
            n=n,
        )
        reports.append((labels, k, report))
    picks = st.tuples(st.integers(0, 2), st.sampled_from([None, 0.6, 0.7, 0.8]))
    out = []
    for which, threshold in draw(st.lists(picks, min_size=1, max_size=6)):
        labels, k, report = reports[which]
        out.append((Clustering(labels, k, threshold=threshold), report))
    return out


class TestKviAgainstOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_kvi_candidates())
    def test_same_selection_as_oracle(self, candidates):
        try:
            expected = kvi_oracle(candidates)
        except NoCandidates as err:
            with pytest.raises(NoCandidates) as again:
                kvi(candidates)
            assert str(again.value) == str(err)
            return
        res = kvi(candidates)
        assert res.chosen is expected.chosen
        assert res.scores == expected.scores
        assert res.alpha == expected.alpha


def test_candidate_score_is_frozen():
    s = CandidateScore(0.6, 2, 0.1, 1.0, 0.9, 1.1, False, None)
    with pytest.raises(AttributeError):
        s.kvi = 2.0
