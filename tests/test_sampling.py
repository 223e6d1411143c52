import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from dppcluster import (
    ConfigError,
    DegenerateData,
    GeneratorSet,
    ResampleExhausted,
    RngStream,
    ShapeMismatch,
    SpectralDecomposition,
    build_artifacts,
    build_rbf_kernel,
    default_k_max,
    dpp_log_likelihood,
    sample_dpp,
    sample_uniform,
)
from dppcluster.sampling import kmeanspp_indices, sample_dpp_block
from oracles import enumerate_dpp_probs, projection_dpp_oracle


def _pooled_chi_square_p(counts, probs, n_draws) -> float:
    # Pearson goodness of fit, cells with an expected count below 5 pooled
    observed, expected = [0.0], [0.0]
    for subset, p in probs.items():
        if p * n_draws >= 5:
            observed.append(counts.get(subset, 0))
            expected.append(p * n_draws)
        else:
            observed[0] += counts.get(subset, 0)
            expected[0] += p * n_draws
    observed, expected = np.array(observed), np.array(expected)
    stat = float(((observed - expected) ** 2 / expected).sum())
    return float(chi2.sf(stat, df=observed.size - 1))


class TestSampleDpp:
    def test_identity_kernel_uniform_over_subsets(self):
        # L = I: every point enters independently with probability 1/2
        spec = SpectralDecomposition(np.ones(3), np.eye(3))
        stream = RngStream(0, 0)
        n_draws = 60_000
        counts = Counter()
        for _ in range(n_draws):
            counts[frozenset(sample_dpp(spec, stream, min_size=0).indices)] += 1
        for subset, c in counts.items():
            assert c / n_draws == pytest.approx(1 / 8, abs=0.01)
        assert len(counts) == 8

    def test_law_matches_enumeration(self, small_kernel_artifacts):
        arts = small_kernel_artifacts
        probs = enumerate_dpp_probs(np.asarray(arts.kernel))
        stream = RngStream(5, 0)
        n_draws = 40_000
        counts = Counter()
        for _ in range(n_draws):
            counts[frozenset(sample_dpp(arts.spectral, stream, min_size=0).indices)] += 1
        tv = 0.5 * sum(abs(counts.get(s, 0) / n_draws - p) for s, p in probs.items())
        assert tv <= 0.02

    def test_law_chi_square(self, small_kernel_artifacts):
        # Pearson goodness of fit against the enumerated law, cells with an
        # expected count below 5 pooled into one
        arts = small_kernel_artifacts
        probs = enumerate_dpp_probs(np.asarray(arts.kernel))
        stream = RngStream(11, 0)
        n_draws = 20_000
        counts = Counter(
            frozenset(sample_dpp(arts.spectral, stream, min_size=0).indices)
            for _ in range(n_draws)
        )
        assert set(counts) <= set(probs)
        observed, expected = [], []
        pooled_obs = pooled_exp = 0.0
        for subset, p in probs.items():
            if p * n_draws >= 5:
                observed.append(counts.get(subset, 0))
                expected.append(p * n_draws)
            else:
                pooled_obs += counts.get(subset, 0)
                pooled_exp += p * n_draws
        observed.append(pooled_obs)
        expected.append(pooled_exp)
        observed, expected = np.array(observed), np.array(expected)
        stat = float(((observed - expected) ** 2 / expected).sum())
        assert chi2.sf(stat, df=observed.size - 1) > 1e-3

    def test_low_rank_law_chi_square(self):
        # a smooth 1-d kernel of numerical rank 6 of 10 takes the low-rank
        # path; its law must still match the enumerated dense kernel
        x = np.random.default_rng(0).normal(size=(10, 1))
        arts = build_artifacts(x, s=2.0)
        assert arts.spectral.eigenvectors.shape[1] < 10
        probs = enumerate_dpp_probs(np.asarray(arts.kernel))
        stream = RngStream(13, 0)
        n_draws = 20_000
        counts = Counter(
            frozenset(sample_dpp(arts.spectral, stream, min_size=0).indices)
            for _ in range(n_draws)
        )
        assert _pooled_chi_square_p(counts, probs, n_draws) > 1e-3

    def test_rank_deficient_duplicates(self):
        # 8 distinct points, each observed three times: L has rank <= 8 and
        # equal rows, so no draw may hold two copies of one point
        rng = np.random.default_rng(1)
        x = np.repeat(rng.normal(size=(8, 2)), 3, axis=0)
        spec = build_artifacts(x, s=0.3).spectral
        keep_probs = spec.eigenvalues / (spec.eigenvalues + 1.0)
        for r in range(400):
            # with min_size=0 phase 1 is a single random(n) draw
            kept = int((RngStream(2, r).generator.random(spec.n) < keep_probs).sum())
            gens = sample_dpp(spec, RngStream(2, r), min_size=0)
            assert len(set(gens.indices)) == len(gens) == kept
            assert len({tuple(x[i]) for i in gens.indices}) == len(gens)

    def test_negative_association_exact(self, small_kernel_artifacts):
        # P({i,j} in Y) <= P(i in Y) P(j in Y), from the enumerated law
        probs = enumerate_dpp_probs(np.asarray(small_kernel_artifacts.kernel))
        n = 5
        single = np.zeros(n)
        joint = np.zeros((n, n))
        for s, p in probs.items():
            for i in s:
                single[i] += p
                for j in s:
                    if i != j:
                        joint[i, j] += p
        for i in range(n):
            for j in range(i + 1, n):
                assert joint[i, j] <= single[i] * single[j] + 1e-12

    def test_min_size_rejection(self, small_kernel_artifacts):
        stream = RngStream(9, 0)
        for _ in range(200):
            gens = sample_dpp(small_kernel_artifacts.spectral, stream, min_size=2)
            assert len(gens) >= 2

    def test_resample_exhausted_on_null_spectrum(self):
        spec = SpectralDecomposition(np.zeros(4), np.eye(4))
        with pytest.raises(ResampleExhausted):
            sample_dpp(spec, RngStream(0, 0), min_size=2, max_attempts=50)

    def test_determinism_across_streams(self, small_kernel_artifacts):
        spec = small_kernel_artifacts.spectral
        first = sample_dpp(spec, RngStream(123, 7))
        # interleave other streams, then redraw stream 7 from scratch
        for sid in range(5):
            sample_dpp(spec, RngStream(123, sid))
        again = sample_dpp(spec, RngStream(123, 7))
        assert first.indices == again.indices

    def test_indices_distinct_and_in_range(self, small_kernel_artifacts):
        stream = RngStream(4, 2)
        for _ in range(300):
            gens = sample_dpp(small_kernel_artifacts.spectral, stream, min_size=0)
            assert len(set(gens.indices)) == len(gens.indices)
            assert all(0 <= i < 5 for i in gens.indices)


class TestChainRuleAgainstOracle:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 40),
        p=st.integers(1, 4),
        duplicates=st.booleans(),
        s=st.floats(0.05, 4.0),
        data_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        min_size=st.integers(0, 3),
    )
    def test_matches_projection_oracle(self, n, p, duplicates, s, data_seed, seed, min_size):
        # same indices in the same order, and the same stream consumption:
        # several draws in a row from one stream must all agree
        x = np.random.default_rng(data_seed).normal(size=(n, p))
        if duplicates:
            x[n // 2 :] = x[: n - n // 2]
        spec = build_artifacts(x, s=s).spectral
        fast, slow = RngStream(seed, 0), RngStream(seed, 0)
        for _ in range(4):
            try:
                expected = projection_dpp_oracle(spec, slow, min_size)
            except ResampleExhausted:
                with pytest.raises(ResampleExhausted):
                    sample_dpp(spec, fast, min_size)
                return
            assert sample_dpp(spec, fast, min_size).indices == expected


def _oracle_or_exhausted(spec, stream, min_size, max_attempts):
    try:
        return projection_dpp_oracle(spec, stream, min_size, max_attempts)
    except ResampleExhausted:
        return None


def _assert_block_matches_oracle(spec, seed, block, min_size, max_attempts=1000, rounds=3):
    # ``rounds`` blocks in a row over the same streams: every run's indices
    # equal its own oracle draw, and so does its stream consumption, since
    # the next round draws on.  Returns the oracle draws.
    fast = [RngStream(seed, r) for r in range(block)]
    slow = [RngStream(seed, r) for r in range(block)]
    draws = []
    for _ in range(rounds):
        expected = []
        for stream in slow:
            expected.append(_oracle_or_exhausted(spec, stream, min_size, max_attempts))
            if expected[-1] is None:
                break
        if expected[-1] is None:
            # phase 1 runs stream by stream: the block raises at the first
            # exhausted run, having read no later stream
            with pytest.raises(ResampleExhausted):
                sample_dpp_block(spec, fast, min_size, max_attempts)
            stop = len(expected) - 1
            assert fast[stop].generator.random() == slow[stop].generator.random()
            for a, b in zip(fast[stop + 1 :], slow[stop + 1 :]):
                assert a.generator.random() == b.generator.random()
            draws.append(expected)
            return draws
        got = sample_dpp_block(spec, fast, min_size, max_attempts)
        assert [g.indices for g in got] == expected
        draws.append(expected)
    for a, b in zip(fast, slow):
        assert a.generator.random() == b.generator.random()
    return draws


class TestLockstepBlock:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 40),
        p=st.integers(1, 4),
        duplicates=st.booleans(),
        s=st.floats(0.05, 4.0),
        data_seed=st.integers(0, 2**16),
        seed=st.integers(0, 2**16),
        block=st.integers(2, 7),
        min_size=st.integers(0, 3),
        max_attempts=st.sampled_from([2, 1000]),
    )
    def test_each_run_matches_its_oracle_draw(
        self, n, p, duplicates, s, data_seed, seed, block, min_size, max_attempts
    ):
        x = np.random.default_rng(data_seed).normal(size=(n, p))
        if duplicates:
            x[n // 2 :] = x[: n - n // 2]
        spec = build_artifacts(x, s=s).spectral
        _assert_block_matches_oracle(spec, seed, block, min_size, max_attempts)

    def test_mixed_sizes_and_empty_sets(self):
        # small eigenvalues: with min_size=0 a block mixes empty sets with
        # sets of one to several points
        x = np.random.default_rng(5).normal(size=(12, 2))
        spec = build_artifacts(x, s=4.0).spectral
        draws = _assert_block_matches_oracle(spec, 1, 6, 0, rounds=6)
        sizes = {len(d) for rnd in draws for d in rnd}
        assert 0 in sizes and len(sizes) >= 3

    def test_null_weight_stop_inside_a_block(self):
        # a caller-supplied basis with a zero column: a run that keeps it has
        # no weight left after its other picks and stops one pick short,
        # while the block's other runs go on; the oracle drops the null
        # column at its first re-orthonormalisation
        vectors = np.eye(6)[:, :5]
        vectors[:, 2] = 0.0
        spec = SpectralDecomposition(np.array([2.0, 2.0, 2.0, 2.0, 2.0, 0.0]), vectors)
        keep = spec.eigenvalues / (spec.eigenvalues + 1.0)
        stopped = 0
        for seed in range(6):
            fresh = [RngStream(seed, r).generator for r in range(5)]
            draws = _assert_block_matches_oracle(spec, seed, 5, 2, rounds=1)[0]
            for g, drawn in zip(fresh, draws):
                while (mask := g.random(6) < keep).sum() < 2:
                    pass
                stopped += bool(mask[2])
                assert len(drawn) == mask.sum() - mask[2]
        assert stopped > 0

    def test_resample_exhausted_inside_a_block(self):
        # sizes of at least 2 are rare, so one of the eight runs exhausts
        # its two attempts while those before it succeed
        spec = SpectralDecomposition(np.array([0.3, 0.3, 0.3, 0.0]), np.eye(4))
        for seed in range(20):
            draws = _assert_block_matches_oracle(spec, seed, 8, 2, max_attempts=2, rounds=1)
            if draws[0][-1] is None and len(draws[0]) > 1:
                return
        pytest.fail("no block exhausted after a successful run")

    def test_block_of_one_is_sample_dpp(self, small_kernel_artifacts):
        spec = small_kernel_artifacts.spectral
        for r in range(50):
            (block,) = sample_dpp_block(spec, [RngStream(3, r)], min_size=0)
            assert block == sample_dpp(spec, RngStream(3, r), min_size=0)

    def test_empty_block(self, small_kernel_artifacts):
        assert sample_dpp_block(small_kernel_artifacts.spectral, []) == []


class TestLogLikelihood:
    def test_identity_kernel_singleton(self):
        # two points 100 apart: the 2 x 2 identity, log det(I + I) = 2 log 2
        k = build_rbf_kernel(np.array([0.0, 100.0]), 1.0)
        norm = 2.0 * np.log(2.0)
        assert dpp_log_likelihood(k, GeneratorSet((0,)), norm) == pytest.approx(-np.log(4.0))

    def test_dense_matrix_rejected(self):
        with pytest.raises(ConfigError, match="ndarray"):
            dpp_log_likelihood(np.eye(2), (0,), 0.0)

    def test_duplicate_points_give_minus_inf(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
        k = build_rbf_kernel(x, 1.0)
        assert dpp_log_likelihood(k, (0, 1), 0.0) == float("-inf")

    def test_power_set_normalization(self, small_kernel_artifacts):
        L = small_kernel_artifacts.kernel
        norm = small_kernel_artifacts.log_det_norm
        total = 0.0
        for r in range(6):
            for sub in itertools.combinations(range(5), r):
                total += np.exp(dpp_log_likelihood(L, sub, log_det_norm=norm))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_empty_subset(self, small_kernel_artifacts):
        # the artifacts' normaliser is log det(L + I) of the dense kernel
        L = small_kernel_artifacts.kernel
        dense_norm = np.log1p(np.clip(np.linalg.eigvalsh(L.entries), 0.0, None)).sum()
        val = dpp_log_likelihood(L, (), small_kernel_artifacts.log_det_norm)
        assert val == pytest.approx(-dense_norm)

    @pytest.mark.parametrize(
        "subset",
        [
            (3,),  # one index
            (7, 2, 11),  # unsorted
            (0, 5, 9),  # sorted
            (299, 0, 150),  # first and last points
            tuple(np.random.default_rng(2).permutation(300)[:250]),  # chunked differences
        ],
    )
    def test_block_is_the_indexers_bit_for_bit(self, subset, monkeypatch):
        # the k x k block factorised is the dense kernel's [np.ix_(idx, idx)]
        x = np.random.default_rng(4).normal(size=(300, 5))
        L = build_rbf_kernel(x, 3.0)
        blocks, cholesky = [], np.linalg.cholesky

        def spy(a):
            blocks.append(a.copy())
            return cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", spy)
        dpp_log_likelihood(L, subset, 0.5)
        idx = np.array(subset)
        (block,) = blocks
        assert np.array_equal(block, L.entries[np.ix_(idx, idx)])

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("subset", [(0, 5, 5, 9), (14, 1, 8, 1, 3), (2, 2)])
    def test_repeated_index_is_rejected(self, as_array, subset):
        # adjacent or not, a repeated index is an error, not a value: a
        # block with a repeated row may still factorise after rounding
        L = build_rbf_kernel(np.random.default_rng(4).normal(size=(300, 5)), 3.0)
        subset = np.array(subset) if as_array else subset
        with pytest.raises(ConfigError, match="distinct"):
            dpp_log_likelihood(L, subset, 0.5)

    @pytest.mark.parametrize("as_array", [False, True])
    @pytest.mark.parametrize("subset", [(0, -1), (4, 5), (-6,)])
    def test_index_outside_the_points_is_rejected(self, small_kernel_artifacts, as_array, subset):
        # n = 5: a negative index does not wrap to the last point, and one
        # past n is a ShapeMismatch, for a tuple and for an array of indices
        arts = small_kernel_artifacts
        subset = np.array(subset) if as_array else subset
        with pytest.raises(ShapeMismatch, match="out of range"):
            dpp_log_likelihood(arts.kernel, subset, arts.log_det_norm)


class TestSampleUniform:
    def test_kmax_two_always_pairs(self):
        stream = RngStream(0, 1)
        counts = Counter()
        n_draws = 30_000
        for _ in range(n_draws):
            gens = sample_uniform(5, 2, stream)
            assert len(gens) == 2
            counts[frozenset(gens.indices)] += 1
        assert len(counts) == 10
        for c in counts.values():
            assert c / n_draws == pytest.approx(1 / 10, abs=0.01)

    def test_size_law(self):
        # k ~ U{2, 3}: sizes 2 and 3 each with probability 1/2
        stream = RngStream(1, 0)
        n_draws = 100_000
        sizes = Counter(len(sample_uniform(5, 3, stream)) for _ in range(n_draws))
        assert sizes[2] / n_draws == pytest.approx(0.5, abs=0.01)
        assert sizes[3] / n_draws == pytest.approx(0.5, abs=0.01)

    def test_indices_distinct(self):
        stream = RngStream(2, 0)
        for _ in range(500):
            gens = sample_uniform(20, 10, stream)
            assert len(set(gens.indices)) == len(gens.indices)

    def test_kmax_exceeding_n_rejected(self):
        with pytest.raises(ConfigError):
            sample_uniform(3, 10, RngStream(0, 0))

    def test_kmax_below_two_rejected(self):
        with pytest.raises(ConfigError):
            sample_uniform(3, 1, RngStream(0, 0))


class TestKmeansppInit:
    def test_k_one_returns_single_point(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 2))
        idx = kmeanspp_indices(x, 1, RngStream(0, 0))
        assert len(idx) == 1 and 0 <= idx[0] < len(x)

    def test_duplicate_pairs_forces_opposite_pick(self):
        x = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
        for seed in range(20):
            centers = x[list(kmeanspp_indices(x, 2, RngStream(seed, 0)))]
            # second center must come from the opposite duplicate pair
            assert not np.array_equal(centers[0], centers[1])

    def test_k_equals_n_exhausts_points(self):
        x = np.array([[0.0], [1.0], [2.0], [5.0]])
        idx = kmeanspp_indices(x, 4, RngStream(3, 0))
        assert sorted(idx) == [0, 1, 2, 3]

    def test_insufficient_distinct_points(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(DegenerateData):
            kmeanspp_indices(x, 2, RngStream(0, 0))

    def test_bad_k_rejected(self):
        with pytest.raises(ConfigError):
            kmeanspp_indices(np.zeros((3, 1)), 5, RngStream(0, 0))


class TestDefaults:
    def test_default_k_max_bounds(self):
        assert default_k_max(2) == 2
        assert default_k_max(100) == 2 * int(np.ceil(np.sqrt(50)))
        assert default_k_max(3) == 3  # clipped to n

    def test_generator_set_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            GeneratorSet((1, 1, 2))


class TestRngStream:
    @pytest.mark.parametrize("seed, stream_id", [(-1, 0), (0, -1), (0, (2, -3))])
    def test_negative_seed_or_stream_id_is_a_config_error(self, seed, stream_id):
        # numpy's SeedSequence would end in a bare ValueError on first draw
        with pytest.raises(ConfigError, match=">= 0"):
            RngStream(seed, stream_id)

    def test_nested_ids_address_the_same_stream(self):
        a, b = RngStream(4, [1, 2]), RngStream(4, (1, 2))
        assert a.stream_id == (1, 2)
        assert a.generator.random() == b.generator.random()
