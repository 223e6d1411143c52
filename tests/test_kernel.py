import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dppcluster import (
    ConfigError,
    DegenerateData,
    KernelMatrix,
    NumericalFailure,
    ShapeMismatch,
    SpectralDecomposition,
    build_rbf_kernel,
    eigendecompose,
    estimate_bandwidth,
    pairwise_sq_dists,
    voronoi_assign,
)
from dppcluster import kernel as kernel_module
from dppcluster.kernel import TRACE_TOL, as_data_matrix, expansion_error, sq_dists_between
from dppcluster.rng import RngStream
from dppcluster.simgen import generate_mixture, parse_scenario_id
from oracles import (
    enumerate_dpp_probs,
    exact_mean_sq_dist,
    lapack_pivoted_spectrum,
    reconstruction_residual,
    scipy_sq_dists,
    scipy_sq_dists_between,
    unique_relabel,
)


class TestDataValidation:
    def test_one_dimensional_promoted(self):
        x = as_data_matrix([0.0, 1.0, 2.0])
        assert x.shape == (3, 1)

    def test_nan_rejected(self):
        with pytest.raises(DegenerateData):
            as_data_matrix([[0.0, np.nan], [1.0, 2.0]])

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateData):
            as_data_matrix([[1.0, 2.0]])

    def test_bad_rank_rejected(self):
        with pytest.raises(ShapeMismatch):
            as_data_matrix(np.zeros((2, 2, 2)))


class TestBandwidth:
    def test_two_points_squared_distance(self):
        # n=2: the estimate reduces to the single squared distance
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert estimate_bandwidth(x) == pytest.approx(25.0)

    def test_three_collinear_points(self):
        # pairs (0,1), (0,2), (1,2) with squared distances 1, 4, 1
        assert estimate_bandwidth(np.array([0.0, 1.0, 2.0])) == pytest.approx(2.0)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 3))
        s1 = estimate_bandwidth(x)
        s2 = estimate_bandwidth(2.5 * x)
        assert s2 == pytest.approx(2.5**2 * s1, rel=1e-12)

    def test_identical_points_rejected(self):
        # the mean of 0.1 or 1/3 is rounded, so the centred rows are not 0;
        # sum_i |xc_i|^2 alone would leave a positive estimate (4.8e-29 for
        # the 0.1 rows), and the correction may leave one either side of 0
        for x in (np.ones((4, 2)), np.full((1500, 3), 0.1), np.full((7, 2), 1 / 3)):
            with pytest.raises(DegenerateData, match="all observations identical"):
                estimate_bandwidth(x)

    def test_rows_one_ulp_apart_are_not_identical(self):
        x = np.array([[1e6, 2.0], [np.nextafter(1e6, 2e6), 2.0]])
        assert estimate_bandwidth(x) == pytest.approx(np.spacing(1e6) ** 2, rel=1e-12)

    def test_shared_distance_matrix_path(self):
        # the mean of the off-diagonal entries of the distance matrix
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2))
        d2 = pairwise_sq_dists(x)
        assert estimate_bandwidth(x) == pytest.approx(d2.sum() / (8 * 7))

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 24),
        p=st.integers(1, 8),
        offset=st.sampled_from([0.0, -3.7, 1e3, 314159.27, -1e6, 1e8]),
        noise=st.sampled_from([1e-8, 1e-4, 1.0, 1e3, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_exact_pairwise_mean(self, n, p, offset, noise, seed):
        # data far from the origin with a spread near its rounding unit, and
        # integer grids (noise None): a form without the correction for the
        # rounded mean misses here by up to the spread itself
        rng = np.random.default_rng(seed)
        if noise is None:
            x = offset + rng.integers(-3, 4, size=(n, p)).astype(float)
        else:
            x = offset + noise * rng.normal(size=(n, p))
        exact = exact_mean_sq_dist(x)
        if exact == 0:
            with pytest.raises(DegenerateData):
                estimate_bandwidth(x)
            return
        error = abs(Fraction(estimate_bandwidth(x)) - exact) / exact
        assert error <= 64 * np.finfo(float).eps

    def test_peak_memory_is_linear(self):
        # a condensed vector of the pairs would take 16 MB here
        x = np.random.default_rng(11).normal(size=(2000, 4))
        tracemalloc.start()
        try:
            estimate_bandwidth(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_overflowing_distances_rejected(self):
        # squared distances near 1e320 overflow to inf, quietly: the only
        # report is the DegenerateData (a RuntimeWarning fails the test)
        x = 1e160 * np.random.default_rng(12).normal(size=(10, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateData, match="overflow"):
                estimate_bandwidth(x)


class TestRbfKernel:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bandwidth_and_factor_must_be_positive_and_finite(self, bad):
        x = np.array([[0.0], [1.0], [3.0]])
        with pytest.raises(ConfigError, match="sigma2_hat"):
            build_rbf_kernel(x, bad)
        with pytest.raises(ConfigError, match="bandwidth factor s"):
            build_rbf_kernel(x, 1.0, bad)

    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 2))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        assert np.all(np.diag(k.entries) == 1.0)

    def test_unit_exponent_value(self):
        # squared distance equal to 2 s sigma2 gives exactly exp(-1)
        sigma2, s = 2.0, 1.5
        d = np.sqrt(2 * s * sigma2)
        x = np.array([[0.0], [d]])
        k = build_rbf_kernel(x, sigma2, s)
        assert k.entries[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_translation_invariance_exact(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0], [5.0, 1.0]])
        sigma2 = estimate_bandwidth(x)
        k1 = build_rbf_kernel(x, sigma2)
        k2 = build_rbf_kernel(x + np.array([7.0, -3.0]), sigma2)
        assert np.array_equal(k1.entries, k2.entries)

    def test_scale_invariance_with_estimated_bandwidth(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 4))
        k1 = build_rbf_kernel(x, estimate_bandwidth(x))
        y = 3.7 * x
        k2 = build_rbf_kernel(y, estimate_bandwidth(y))
        assert np.abs(k1.entries - k2.entries).max() <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        sigma2 = estimate_bandwidth(x)
        k1 = build_rbf_kernel(x, sigma2)
        k2 = build_rbf_kernel(x @ q.T, sigma2)
        assert np.abs(k1.entries - k2.entries).max() <= 1e-10

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        assert np.array_equal(k.entries, k.entries.T)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(15, 2))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        assert k.entries.min() > 0.0
        assert k.entries.max() == 1.0

    def test_kernel_matrix_validation(self):
        # the kernel is checked through its data: a non-finite entry, or a
        # single observation
        with pytest.raises(DegenerateData, match="NaN"):
            KernelMatrix(np.array([[0.0, 0.5], [np.nan, 0.0]]), -1.0)
        with pytest.raises(DegenerateData, match="NaN"):
            KernelMatrix(np.array([[0.0, np.inf], [0.3, 0.0]]), -1.0)
        with pytest.raises(DegenerateData, match="two observations"):
            KernelMatrix(np.array([[0.0, 0.5]]), -1.0)

    @pytest.mark.parametrize("scale", [0.0, 1.0, -np.inf, np.nan])
    def test_kernel_scale_must_be_finite_and_negative(self, scale):
        with pytest.raises(NumericalFailure, match="scale"):
            KernelMatrix(np.zeros((2, 2)), scale)

    def test_kernel_data_must_be_a_matrix(self):
        with pytest.raises(ShapeMismatch):
            KernelMatrix(np.zeros((2, 3, 2)), -1.0)
        assert KernelMatrix(np.zeros(3), -1.0).data.shape == (3, 1)  # one feature

    def test_immutability(self):
        k = build_rbf_kernel(np.array([[0.0], [1.0]]), 1.0)
        with pytest.raises(ValueError):
            k.data[0, 0] = 0.5
        with pytest.raises(ValueError):
            k.entries[0, 1] = 0.5

    def test_read_only_data_is_shared_and_caller_arrays_not_frozen(self):
        x = np.random.default_rng(13).normal(size=(6, 2))
        frozen = x.copy()
        frozen.setflags(write=False)
        assert KernelMatrix(frozen, -1.0).data is frozen
        k = build_rbf_kernel(x, 1.0)
        assert x.flags.writeable and k.data is not x
        before = k.block([0], [1])
        x[0, 1] = 7.0
        assert k.block([0], [1]) == before and k.data[0, 1] != 7.0

    def test_rows_and_blocks_bit_equal_to_the_dense_kernel(self):
        # against the dense kernel as it was built before it became implicit
        x = np.random.default_rng(14).normal(size=(150, 3))
        sigma2, s = estimate_bandwidth(x), 0.7
        k = build_rbf_kernel(x, sigma2, s)
        dense = np.exp(pairwise_sq_dists(x) / (-2.0 * s * sigma2))
        np.fill_diagonal(dense, 1.0)
        for i in (0, 77, 149):
            assert np.array_equal(k.block([i]), dense[i : i + 1])
        assert np.array_equal(k.block(slice(64, 128), slice(64, None)), dense[64:128, 64:])
        idx = np.array([5, 140, 5 + 64, 3])
        assert np.array_equal(k.block(idx, idx), dense[np.ix_(idx, idx)])
        assert np.array_equal(np.asarray(k), dense) and np.array_equal(k.entries, dense)

    def test_dense_kernel_allocates_one_square_array(self):
        # the quotient d2 / scale is exponentiated in place: a second n x n
        # temporary would take the peak to about 2 * 8 n^2
        n = 1000
        x = np.random.default_rng(15).normal(size=(n, 2))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        tracemalloc.start()
        try:
            dense = k.entries
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dense.shape == (n, n)
        assert peak <= 1.1 * 8 * n * n


@st.composite
def _small_data(draw, max_n=40):
    # small n and p <= 6, raw normal or integer-grid rows (exact ties),
    # optionally with copied rows and a 1e6 offset on every feature
    n = draw(st.integers(2, max_n))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        x = rng.integers(-2, 3, size=(n, p)).astype(float)
    else:
        x = rng.normal(size=(n, p))
    if draw(st.booleans()):
        x[rng.integers(0, n, size=n // 2)] = x[rng.integers(0, n, size=n // 2)]
    if draw(st.booleans()):
        x += 1e6
    return x


class TestMatrixFreeKernel:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(x=_small_data(), s=st.floats(0.05, 4.0), seed=st.integers(0, 2**16))
    def test_every_index_form_bit_equal_to_the_dense_kernel(self, x, s, seed):
        # unsorted, repeated and negative index arrays, and slices with
        # negative bounds, steps and no entries, on either axis
        n = x.shape[0]
        scale = -2.0 * s * max(float(x.var(axis=0).sum()), 1e-3)
        k = KernelMatrix(x, scale)
        dense = np.exp(scipy_sq_dists(x) / scale)
        rng = np.random.default_rng(seed)
        a, b = sorted(int(v) for v in rng.integers(0, n + 1, size=2))
        idx = rng.integers(-n, n, size=rng.integers(1, 8))
        jdx = rng.integers(0, n, size=rng.integers(1, 8))
        selectors = [
            idx,
            jdx,
            np.repeat(jdx, 2),
            np.array([n - 1, -1]),
            slice(None),
            slice(a, b),
            slice(b, None),
            slice(-b or None, None, -1),
            slice(a, None, 3),
        ]
        every = np.arange(n)
        for rows in selectors:
            for cols in selectors:
                got = k.block(rows, cols)
                want = dense[np.ix_(every[rows], every[cols])]
                assert got.shape == want.shape, (rows, cols)
                assert np.array_equal(got, want), (rows, cols)
        assert np.array_equal(k.block(idx), dense[every[idx]])
        assert np.all(k.block(every, every).diagonal() == 1.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(x=_small_data(max_n=150), s=st.floats(0.05, 4.0), top=st.integers(0, 149))
    def test_expanded_blocks_within_their_bound(self, x, s, top):
        n, p = x.shape
        top = top % n
        scale = -2.0 * s * max(float(x.var(axis=0).sum()), 1e-3)
        k = KernelMatrix(x, scale)
        # the bound of the docstring: 2 E / |scale| + expansion_error(p)
        sq = k.expansion[2]
        reach = np.sqrt(sq[top : top + 64].max()) + np.sqrt(sq.max())
        bound = 2.0 * expansion_error(p) * reach**2 / -scale + expansion_error(p)
        block = k.expanded_block(top, top + 64)
        exact = k.block(slice(top, top + 64))
        assert block.shape == exact.shape
        assert np.abs(block - exact).max() <= bound
        assert bound < 1e-10
        assert np.all(block.diagonal(top) == 1.0)
        coinciding = pairwise_sq_dists(x)[top : top + 64] == 0.0
        assert np.all(block[coinciding] == 1.0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(x=_small_data(), s=st.floats(0.05, 4.0))
    @example(x=np.array([[0.0], [5.0], [10.0]]), s=0.05)  # full rank
    def test_certificate_bounds_the_exact_residual(self, x, s):
        # duplicated rows, integer grids, 1e6 offsets and full rank: each
        # check holds against extended precision.  (a) E = L - F F^T is PSD
        # with exact trace within TRACE_TOL plus the rounding the check
        # allows; (b) the eigen step's bound is never below the exact
        # max |F F^T - V Lam V^T|, and passes
        k = KernelMatrix(x, -2.0 * s * max(float(x.var(axis=0).sum()), 1e-3))
        factor, bound, kept = kernel_module._pivoted_cholesky, kernel_module._eigen_step_bound, {}

        def keep_factor(*args):
            out = factor(*args)
            kept["f"] = out.copy()  # V is written over the factor
            return out

        def keep_bound(*args):
            kept["bound"] = bound(*args)
            return kept["bound"]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_module, "_pivoted_cholesky", keep_factor)
            mp.setattr(kernel_module, "_eigen_step_bound", keep_bound)
            spec = eigendecompose(k)
        f = kept["f"].astype(np.longdouble)
        n, r = f.shape
        gamma = (r + 3) * np.finfo(float).eps / 2
        residual = np.asarray(k.entries, dtype=np.longdouble) - f @ f.T
        trace = float(np.trace(residual))
        assert trace <= TRACE_TOL + 2 * n * gamma
        assert np.linalg.eigvalsh(residual.astype(float)).min() >= -1e-9
        assert reconstruction_residual(f @ f.T, spec) <= kept["bound"]
        assert kept["bound"] <= kernel_module.RECONSTRUCTION_TOL

    def test_factor_perturbed_after_the_loop_fails_both_checks(self, monkeypatch):
        # d is read from the factor as returned, not from the loop's running
        # tally, so a change after the loop fails either bound of check (a):
        # +1e-5 on the first pivot's entry takes min d to -2e-5, below its
        # rounding, and 0.9 times that row raises sum d by 0.19, above
        # TRACE_TOL
        x = np.random.default_rng(18).normal(size=(150, 3))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        factor = kernel_module._pivoted_cholesky
        for scale, shift in ((1.0, 1e-5), (0.9, 0.0)):

            def perturbed(*args):
                f = factor(*args)
                f[0] *= scale  # ties go to the first row: row 0 is the first pivot
                f[0, 0] += shift
                return f

            monkeypatch.setattr(kernel_module, "_pivoted_cholesky", perturbed)
            with pytest.raises(NumericalFailure, match="residual diagonal min"):
                eigendecompose(k)

    def test_negative_residual_diagonal_fails_the_certificate(self, monkeypatch):
        # +1e-8 leaves the residual trace within TRACE_TOL and the eigen
        # step exact, but d = diag(L - F F^T) falls to -2e-8, below its
        # rounding, which no factor of a PSD kernel leaves
        x = np.random.default_rng(18).normal(size=(150, 3))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        factor = kernel_module._pivoted_cholesky

        def perturbed(*args):
            f = factor(*args)
            f[0, 0] += 1e-8
            return f

        monkeypatch.setattr(kernel_module, "_pivoted_cholesky", perturbed)
        with pytest.raises(NumericalFailure, match="residual diagonal min"):
            eigendecompose(k)

    def test_no_kernel_entry_read_after_the_factor(self, monkeypatch):
        x = np.random.default_rng(19).normal(size=(150, 3))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        factor, reads = kernel_module._pivoted_cholesky, []

        def factor_then_mark(*args):
            out = factor(*args)
            reads.append("factor")
            return out

        def spy(name):
            real = getattr(KernelMatrix, name)

            def read(self, *args):
                reads.append(name)
                return real(self, *args)

            return read

        monkeypatch.setattr(kernel_module, "_pivoted_cholesky", factor_then_mark)
        for name in ("block", "expanded_block"):
            monkeypatch.setattr(KernelMatrix, name, spy(name))
        eigendecompose(k)
        assert reads[-1] == "factor" and "block" in reads

    @staticmethod
    def _multiplier_growth(k) -> float:
        # the largest row 1-norm of W = F_2 F_1^-1, which the certificate
        # takes to be at most _GROWTH; the pivots are the single rows read
        pivots = []

        def row(i):
            pivots.append(i)
            return k.block([i])[0]

        f = kernel_module._pivoted_cholesky(row, np.ones(k.n))
        return np.abs(np.linalg.solve(f[pivots].T, f.T)).sum(axis=0).max()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(x=_small_data(max_n=150), s=st.floats(0.05, 4.0))
    def test_multiplier_growth_within_the_certificates_allowance(self, x, s):
        k = KernelMatrix(x, -2.0 * s * max(float(x.var(axis=0).sum()), 1e-3))
        assert self._multiplier_growth(k) <= kernel_module._GROWTH

    def test_multiplier_growth_on_large_rank_data(self):
        # uniform points in 5-d and 8 overlapping clusters in 8-d, the kinds
        # of data with the largest growth measured: 27.5 (rank 561) and 25.4
        # (rank 925) here
        rng = np.random.default_rng(0)
        clusters = rng.normal(0.0, 3.0, size=(8, 8))[rng.integers(0, 8, 1500)]
        for x in (rng.random((1500, 5)), clusters + rng.normal(size=(1500, 8))):
            k = build_rbf_kernel(x, estimate_bandwidth(x))
            assert self._multiplier_growth(k) <= kernel_module._GROWTH

    def test_scaled_gram_conditioning_on_large_rank_data(self):
        # the eigen step's Gram matrix loses orthonormality as u cond^2 for
        # cond = cond(D^-1 F^T F D^-1)^1/2, F's columns scaled to unit norm,
        # and eigendecompose requires max |V^T V - I| <= 1e-8.  The allowance
        # of 1000 keeps u cond^2 at 1.1e-10, a hundredth of that; measured:
        # 80 and 137 on the data above (ranks 455 and 711), 100 on the
        # n = 1500 scenario (rank 273) and 198 at n = 5000 (rank 480), with
        # max |V^T V - I| at most a tenth of u cond^2
        rng = np.random.default_rng(0)
        clusters = rng.normal(0.0, 3.0, size=(8, 8))[rng.integers(0, 8, 1500)]
        spec = parse_scenario_id("n1500-pmedium-kmedium")
        scenario = generate_mixture(spec, RngStream(0, (0, 0))).data
        for x in (rng.random((1500, 5)), clusters + rng.normal(size=(1500, 8)), scenario):
            k = build_rbf_kernel(x, estimate_bandwidth(x))
            f = kernel_module._pivoted_cholesky(lambda i: k.block([i])[0], np.ones(k.n))
            gram = f.T @ f
            norm = np.sqrt(gram.diagonal())
            sq = np.linalg.eigvalsh(gram / np.multiply.outer(norm, norm))
            cond = np.sqrt(sq[-1] / sq[0])
            assert cond <= 1000.0
            vec = eigendecompose(k).eigenvectors
            loss = np.abs(vec.T @ vec - np.eye(vec.shape[1])).max()
            assert loss <= np.finfo(float).eps / 2 * cond**2


def _far_apart(n: int) -> KernelMatrix:
    # n points 100 apart: every off-diagonal entry underflows to 0, so the
    # kernel is the n x n identity
    return build_rbf_kernel(100.0 * np.arange(float(n)), 1.0)


class TestEigendecompose:
    def test_identity_kernel(self):
        spec = eigendecompose(_far_apart(4))
        assert np.allclose(spec.eigenvalues, 1.0)

    def test_all_ones_two_by_two(self):
        # two coincident points
        spec = eigendecompose(build_rbf_kernel(np.zeros(2), 1.0))
        assert spec.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-12)

    def test_dense_matrix_rejected(self):
        with pytest.raises(ConfigError, match="ndarray"):
            eigendecompose(np.eye(3))

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 2))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        spec = eigendecompose(k)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        assert np.abs(recon - k.entries).max() <= 1e-6
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-8

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 3))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        spec = eigendecompose(k)
        # the sum is tr(F F^T) = 40 - tr E, and tr E is at most TRACE_TOL
        assert 40.0 - TRACE_TOL - 1e-9 <= spec.eigenvalues.sum() <= 40.0 + 1e-9
        assert spec.eigenvalues.min() >= 0.0
        assert np.all(np.diff(spec.eigenvalues) <= 0)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues {3, -1}: far beyond the PSD tolerance
        with pytest.raises(NumericalFailure, match="not PSD"):
            mat = np.array([[1.0, 2.0], [2.0, 1.0]])
            kernel_module._pivoted_cholesky(mat.__getitem__, mat.diagonal())

    def test_solver_failure_reported(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericalFailure, match="converge"):
            eigendecompose(_far_apart(3))

    def test_implicit_kernel_checks_reconstruction(self, monkeypatch):
        # two eigenvalues of M = R R^T on the wrong vectors leave V
        # orthonormal, and check (b) catches the swap through |G|_F, G =
        # Z Lam Z^T - M, with no kernel row read after the factor; the same
        # swap in the scaled Gram matrix, the first eigenproblem, scales two
        # columns of Q and fails orthonormality
        x = np.random.default_rng(17).normal(size=(150, 2))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        eigh = np.linalg.eigh
        for call, match in ((2, "reconstruction residual"), (1, "orthonormality")):
            calls = []

            def swapped(m):
                vals, vecs = eigh(m)
                calls.append(m)
                if len(calls) == call:
                    vals[[-1, -2]] = vals[[-2, -1]]
                return vals, vecs

            monkeypatch.setattr(np.linalg, "eigh", swapped)
            with pytest.raises(NumericalFailure, match=match):
                eigendecompose(k)

    def test_non_orthonormal_basis_fails_orthonormality(self, monkeypatch):
        eigh = np.linalg.eigh

        def skewed(m):
            vals, vecs = eigh(m)
            vecs[:, 2] += 1e-3 * vecs[:, 3]
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", skewed)
        with pytest.raises(NumericalFailure, match="orthonormality"):
            eigendecompose(_line_kernel(range(6)))  # rank 6

    def test_no_square_temporary_after_the_factor(self, monkeypatch):
        # after the factor, the decomposition and its certificate hold less
        # than half an n x n float64 array (a whole n x n reconstruction
        # took about 9 n² bytes)
        n = 1000
        rng = np.random.default_rng(0)
        centers = ((0, 0), (3, 0), (0, 3), (3, 3))
        x = np.concatenate([rng.normal(c, 0.3, size=(n // 4, 2)) for c in centers])
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        factor = kernel_module._pivoted_cholesky

        def factor_then_reset_peak(*args):
            out = factor(*args)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(kernel_module, "_pivoted_cholesky", factor_then_reset_peak)
        tracemalloc.start()
        try:
            spec = eigendecompose(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spec.eigenvectors.shape[1] < n // 10
        assert peak < 4 * n * n

    def test_peak_is_the_factor_and_a_few_rank_squared_arrays(self):
        # rank 387 at n = 1000: the factor (8 n r bytes), which V is written
        # over, and at most four r x r float64 arrays beside it at any time;
        # with the small vectors the excess measured 4.17 such arrays, and
        # the bound allows five.  While
        # the factor grows, its buffer holds at most 8 n (r + 64) bytes, far
        # below.  A buffer grown by doubling (512 rows) and the dead r x r
        # arrays the eigen step kept took 7.06.
        x = np.random.default_rng(0).random((1000, 5))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        tracemalloc.start()
        try:
            spec = eigendecompose(k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n, r = spec.eigenvectors.shape
        assert r >= 250
        assert peak < 8 * n * r + 5 * 8 * r * r


def _line_kernel(points) -> KernelMatrix:
    # points 3 apart on a line: distinct points give a well-conditioned
    # kernel, so the numerical rank is the number of distinct points
    x = 3.0 * np.asarray(points, dtype=float)
    return build_rbf_kernel(x, 1.0)


class TestLowRankEigendecompose:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 60),
        p=st.integers(1, 4),
        s=st.floats(0.05, 4.0),
        duplicates=st.booleans(),
        data_seed=st.integers(0, 2**16),
    )
    def test_spectrum_within_trace_residual(self, n, p, s, duplicates, data_seed):
        x = np.random.default_rng(data_seed).normal(size=(n, p))
        if duplicates:
            x[n // 2 :] = x[: n - n // 2]
        k = build_rbf_kernel(x, estimate_bandwidth(x), s)
        spec = eigendecompose(k)
        mat = k.entries
        lam, vec = spec.eigenvalues, spec.eigenvectors
        r = vec.shape[1]
        # L = V diag(lam) V^T + R with R PSD, so by Weyl every eigenvalue
        # moves by at most ||R|| <= trace R, which is at most TRACE_TOL, and
        # so does every entry, |R_ij| <= max R_ii
        trace_residual = np.trace(mat) - lam.sum()
        assert -1e-9 <= trace_residual <= TRACE_TOL + 1e-9
        dense = np.linalg.eigvalsh(mat)[::-1]
        assert np.abs(lam - dense).max() <= trace_residual + 1e-9
        assert np.all(lam[r:] == 0.0)
        gram = vec.T @ vec - np.eye(r)
        assert np.abs(gram).max(initial=0.0) <= 1e-8
        assert np.abs((vec * lam[:r]) @ vec.T - mat).max() <= trace_residual + 1e-9

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    def test_total_variation_within_trace_residual(self, s):
        # the DPP of V Lam V^T, over all 2^11 subsets of 11 points in two
        # clusters, is within tr E = tr L - sum(lambda) of the kernel's in
        # total variation, the factor truncated (rank 4 to 10 of 11); given
        # |Y| >= 2, as the sampler draws, within 2 tr E / P(|Y| >= 2)
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0.0, 1.0, (6, 2)), rng.normal((4.0, 0.0), 1.0, (5, 2))])
        k = build_rbf_kernel(x, estimate_bandwidth(x), s)
        spec = eigendecompose(k)
        vec, lam = spec.eigenvectors, spec.eigenvalues
        assert vec.shape[1] < 11
        trace = 11.0 - lam.sum()
        exact = enumerate_dpp_probs(k.entries)
        approx = enumerate_dpp_probs((vec * lam[: vec.shape[1]]) @ vec.T)
        assert 0.5 * sum(abs(exact[y] - approx[y]) for y in exact) <= trace + 1e-12
        big = [y for y in exact if len(y) >= 2]
        p_big, q_big = sum(exact[y] for y in big), sum(approx[y] for y in big)
        tv_big = 0.5 * sum(abs(exact[y] / p_big - approx[y] / q_big) for y in big)
        assert tv_big <= 2.0 * trace / p_big + 1e-12

    def test_duplicated_points_give_rank_of_distinct_points(self):
        # 6 distinct points of 9: the factor stops at rank 6
        k = _line_kernel([0, 1, 2, 3, 4, 5, 0, 1, 2])
        spec = eigendecompose(k)
        assert spec.eigenvectors.shape == (9, 6)
        assert np.all(spec.eigenvalues[6:] == 0.0)
        dense = np.linalg.eigvalsh(k.entries)[::-1]
        assert np.abs(spec.eigenvalues - dense).max() <= 1e-12

    @pytest.mark.parametrize("n, s", [(9, 1.0), (300, 0.02)])
    def test_full_rank_kernel(self, n, s):
        # distinct points, or a narrow bandwidth: r = n, and the factor and
        # the two n x n eigenproblems still give the exact eigensystem
        if n == 9:
            k = _line_kernel(range(9))
        else:
            x = np.random.default_rng(5).normal(size=(n, 3))
            k = build_rbf_kernel(x, estimate_bandwidth(x), s)
        spec = eigendecompose(k)
        mat, vec = k.entries, spec.eigenvectors
        assert vec.shape == (n, n)
        dense = np.linalg.eigvalsh(mat)[::-1]
        assert np.abs(spec.eigenvalues - dense).max() <= 1e-12
        assert np.abs(vec.T @ vec - np.eye(n)).max() <= 1e-8
        assert np.abs((vec * spec.eigenvalues) @ vec.T - mat).max() <= 1e-6

    @pytest.mark.parametrize(
        "mat",
        [np.diag([1.0, 1.0, 1.0, -1.0]), -np.eye(3), np.full((3, 3), np.nan)],
        ids=["negative-pivot", "negative-diagonal", "nan"],
    )
    def test_non_psd_rejected(self, mat):
        with pytest.raises(NumericalFailure, match="not PSD"):
            kernel_module._pivoted_cholesky(mat.__getitem__, mat.diagonal())

    def test_small_solver_failure_reported(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericalFailure, match="converge"):
            # three coincident points, rank 1: the r x r problem
            eigendecompose(build_rbf_kernel(np.zeros(3), 1.0))

    def test_decomposition_validates_zero_tail(self):
        v = np.ones((2, 1)) / np.sqrt(2.0)
        SpectralDecomposition(np.array([2.0, 0.0]), v)
        with pytest.raises(NumericalFailure, match="exactly 0"):
            SpectralDecomposition(np.array([2.0, 0.5]), v)
        with pytest.raises(NumericalFailure, match="finite"):
            SpectralDecomposition(np.array([np.nan, 0.0]), v)
        with pytest.raises(ShapeMismatch):
            SpectralDecomposition(np.array([1.0]), np.ones((1, 2)))


def test_pairwise_sq_dists_symmetric_zero_diag():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(7, 3))
    d2 = pairwise_sq_dists(x)
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diag(d2) == 0.0)
    assert d2[0, 1] == pytest.approx(((x[0] - x[1]) ** 2).sum())


@st.composite
def _point_sets(draw):
    # n across the 64-row block edges, raw normal data, integer grids (many
    # exact ties) and features on scales 1e-3..1e3, optionally with a third
    # of the rows copied over others
    n = draw(st.integers(2, 130))
    p = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["normal", "grid", "scaled"]))
    if kind == "grid":
        x = rng.integers(-3, 4, size=(n, p)).astype(float)
    else:
        x = rng.normal(size=(n, p))
        if kind == "scaled":
            x *= 10.0 ** rng.uniform(-3, 3, size=p)
    if draw(st.booleans()):
        x[rng.integers(0, n, size=n // 3)] = x[rng.integers(0, n, size=n // 3)]
    return x


class TestAgainstScipy:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(x=_point_sets())
    def test_pairwise_sq_dists_bit_equal_to_pdist(self, x):
        d2 = pairwise_sq_dists(x)
        assert np.array_equal(d2, scipy_sq_dists(x))
        assert np.array_equal(d2, d2.T) and np.all(d2.diagonal() == 0.0)
        assert not d2.flags.writeable

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=_point_sets(), k=st.integers(1, 20), seed=st.integers(0, 2**16))
    def test_voronoi_fallback_bit_equal_to_cdist(self, x, k, seed):
        n = x.shape[0]
        idx = np.random.default_rng(seed).choice(n, size=min(k, n), replace=False)
        ref = scipy_sq_dists_between(x[idx], x)
        assert np.array_equal(sq_dists_between(x[idx], x), ref)
        expected, k_expected = unique_relabel(np.argmin(ref, axis=0))
        part = voronoi_assign(x, idx)
        assert np.array_equal(part.labels, expected) and part.k == k_expected

    @pytest.mark.parametrize(
        "m, w, p, step",
        [
            (5, 2000, 40, 1),  # p w > _CHUNK: one row per chunk
            (21, 1000, 8, 8),  # 8 rows a chunk, which does not divide 21
        ],
    )
    def test_sq_dists_between_chunks_bit_equal_to_cdist(self, m, w, p, step):
        assert max(1, kernel_module._CHUNK // (p * w)) == step
        rng = np.random.default_rng(m)
        a, b = rng.normal(size=(m, p)), rng.normal(size=(w, p))
        assert np.array_equal(sq_dists_between(a, b), scipy_sq_dists_between(a, b))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=_point_sets(), s=st.floats(0.05, 4.0))
    def test_factor_matches_dpstrf(self, x, s):
        # LAPACK's factor, truncated by the same residual trace rule, takes
        # the same rank, and the same pivots up to the first near-tie of the
        # two largest residual diagonal entries, where either may go first
        try:
            sigma2 = estimate_bandwidth(x)
        except DegenerateData:  # every row the same
            return
        k = build_rbf_kernel(x, sigma2, s)
        n, mat, pivots = k.n, k.entries, []

        def row(i):
            pivots.append(i)
            return mat[i]

        square = np.square(kernel_module._pivoted_cholesky(row, mat.diagonal()))
        rank = square.shape[1]
        ref_rank, ref_pivots, ref_lam = lapack_pivoted_spectrum(mat, TRACE_TOL)
        assert rank == ref_rank
        for t in range(rank):
            second, first = np.sort(mat.diagonal() - square[:, :t].sum(axis=1))[-2:]
            if first - second <= 1e-9:
                break
            assert pivots[t] == ref_pivots[t]
        lam = eigendecompose(k).eigenvalues
        # each spectrum lies below the kernel's by at most its trace residual
        trace_r = max(n - lam.sum(), n - ref_lam.sum())
        assert np.abs(lam - ref_lam).max() <= trace_r + 1e-9
