import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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
from dppcluster.kernel import PIVOT_TOL, as_data_matrix, sq_dists_between
from dppcluster.partition import compact_labels
from oracles import lapack_pivoted_spectrum, scipy_sq_dists, scipy_sq_dists_between


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
        with pytest.raises(DegenerateData):
            estimate_bandwidth(np.ones((4, 2)))

    def test_shared_distance_matrix_path(self):
        # the mean of the off-diagonal entries of the distance matrix
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2))
        d2 = pairwise_sq_dists(x)
        assert estimate_bandwidth(x) == pytest.approx(d2.sum() / (8 * 7))

    def test_shared_distance_matrix_path_bit_equal(self):
        # the upper triangle is computed in 64-row blocks and copied in
        # pdist's order, so the mean agrees with the mean of the distance
        # matrix's upper triangle to the last bit
        x = np.random.default_rng(11).normal(size=(300, 4))
        d2 = pairwise_sq_dists(x)
        assert estimate_bandwidth(x) == d2[np.triu_indices(300, 1)].mean()

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
        before = k[0, 1]
        x[0, 1] = 7.0
        assert k[0, 1] == before and k.data[0, 1] != 7.0

    def test_rows_and_blocks_bit_equal_to_the_dense_kernel(self):
        # against the dense kernel as it was built before it became implicit
        x = np.random.default_rng(14).normal(size=(150, 3))
        sigma2, s = estimate_bandwidth(x), 0.7
        k = build_rbf_kernel(x, sigma2, s)
        dense = np.exp(pairwise_sq_dists(x) / (-2.0 * s * sigma2))
        np.fill_diagonal(dense, 1.0)
        for i in (0, 77, 149):
            assert np.array_equal(k[i], dense[i])
        assert np.array_equal(k[64:128, 64:], dense[64:128, 64:])
        idx = np.array([5, 140, 5 + 64, 3])
        assert np.array_equal(k[np.ix_(idx, idx)], dense[np.ix_(idx, idx)])
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
        n = x.shape[0]
        scale = -2.0 * s * max(float(x.var(axis=0).sum()), 1e-3)
        k = KernelMatrix(x, scale)
        dense = np.exp(pairwise_sq_dists(x) / scale)
        rng = np.random.default_rng(seed)
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        a, b = sorted(int(v) for v in rng.integers(0, n + 1, size=2))
        idx = rng.integers(0, n, size=rng.integers(1, 8))
        jdx = rng.integers(0, n, size=idx.size)
        every = np.arange(n)
        indices = [
            i,
            -1,
            (i, j),
            slice(a, b),
            (slice(a, b), slice(b, None)),
            (slice(None), slice(a, b)),
            (slice(a, b), j),
            np.ix_(idx, idx),
            np.ix_(idx, jdx),
            (idx, jdx),
            (every, every),
            (idx, slice(a, b)),
            (slice(a, b), idx),
            ...,
        ]
        for index in indices:
            got, want = k[index], dense[index]
            assert got.shape == np.shape(want), index
            assert np.array_equal(got, want), index
        assert np.all(k[every, every] == 1.0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(x=_small_data(max_n=150), s=st.floats(0.05, 4.0), top=st.integers(0, 149))
    def test_expanded_blocks_within_their_bound(self, x, s, top):
        n = x.shape[0]
        top = top % n
        scale = -2.0 * s * max(float(x.var(axis=0).sum()), 1e-3)
        k = KernelMatrix(x, scale)
        for start in (0, top):
            block, bound = k.expanded_block(top, top + 64, start)
            exact = k[top : top + 64, start:]
            assert block.shape == exact.shape
            assert np.abs(block - exact).max() <= bound
            assert bound < 1e-10
            assert np.all(block.diagonal(top - start) == 1.0)
            coinciding = pairwise_sq_dists(x)[top : top + 64, start:] == 0.0
            assert np.all(block[coinciding] == 1.0)

    def test_check_verdict_is_the_exact_one(self, monkeypatch):
        # at a tolerance equal to the exact residual the check passes, one
        # ulp below it fails: the expanded blocks cannot decide there, so
        # the check falls back to exact entries
        x = np.random.default_rng(18).normal(size=(150, 3))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        spec = eigendecompose(k)
        vec = spec.eigenvectors
        lam = spec.eigenvalues[: vec.shape[1]]
        step = kernel_module._CHECK_ROWS
        exact = max(
            np.abs((vec[top : top + step] * lam) @ vec[top:].T - k[top : top + step, top:]).max()
            for top in range(0, k.n, step)
        )
        monkeypatch.setattr(kernel_module, "RECONSTRUCTION_TOL", exact)
        eigendecompose(k)
        monkeypatch.setattr(kernel_module, "RECONSTRUCTION_TOL", np.nextafter(exact, 0.0))
        with pytest.raises(NumericalFailure, match="reconstruction residual"):
            eigendecompose(k)


class TestEigendecompose:
    def test_identity_kernel(self):
        spec = eigendecompose(np.eye(4))
        assert np.allclose(spec.eigenvalues, 1.0)

    def test_all_ones_two_by_two(self):
        spec = eigendecompose(np.ones((2, 2)))
        assert spec.eigenvalues == pytest.approx([2.0, 0.0], abs=1e-12)

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
        assert spec.eigenvalues.sum() == pytest.approx(40.0, abs=1e-6)
        assert spec.eigenvalues.min() >= 0.0
        assert np.all(np.diff(spec.eigenvalues) <= 0)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues {3, -1}: far beyond the PSD tolerance
        with pytest.raises(NumericalFailure):
            eigendecompose(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_solver_failure_reported(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericalFailure, match="converge"):
            eigendecompose(np.eye(3))

    @staticmethod
    def _psd_matrix():
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        return (q * np.arange(1.0, 7.0)) @ q.T

    def test_swapped_eigenvalues_fail_reconstruction(self, monkeypatch):
        # an orthonormal basis passes the first check; only the
        # reconstruction can see that two eigenvalues sit on the wrong vectors
        mat = self._psd_matrix()
        vals, vecs = np.linalg.eigh(mat)
        vals[[1, 4]] = vals[[4, 1]]
        monkeypatch.setattr(np.linalg, "eigh", lambda _: (vals, vecs))
        with pytest.raises(NumericalFailure, match="reconstruction residual"):
            eigendecompose(mat)

    def test_implicit_and_dense_kernels_decompose_alike(self):
        # both read the same rows, so they build the same factor
        x = np.random.default_rng(16).normal(size=(200, 3))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        implicit, dense = eigendecompose(k), eigendecompose(k.entries)
        assert np.array_equal(implicit.eigenvalues, dense.eigenvalues)
        assert np.array_equal(implicit.eigenvectors, dense.eigenvectors)

    def test_implicit_kernel_checks_reconstruction(self, monkeypatch):
        # the regenerated rows of an implicit kernel are checked as a dense
        # L is: two eigenvalues on the wrong vectors fail
        x = np.random.default_rng(17).normal(size=(150, 2))
        k = build_rbf_kernel(x, estimate_bandwidth(x))
        eigh = np.linalg.eigh

        def swapped(m):
            vals, vecs = eigh(m)
            vals[[-1, -2]] = vals[[-2, -1]]
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", swapped)
        with pytest.raises(NumericalFailure, match="reconstruction residual"):
            eigendecompose(k)

    def test_non_orthonormal_basis_fails_orthonormality(self, monkeypatch):
        mat = self._psd_matrix()
        vals, vecs = np.linalg.eigh(mat)
        vecs = vecs.copy()
        vecs[:, 2] += 1e-3 * vecs[:, 3]
        monkeypatch.setattr(np.linalg, "eigh", lambda _: (vals, vecs))
        with pytest.raises(NumericalFailure, match="orthonormality"):
            eigendecompose(mat)

    # n rows in blocks of `step` rows, the last block partial: lower-triangle
    # entries, which the factorization never reads, inside the first and the
    # last diagonal block, across the first block edge and in the far corner
    step = kernel_module._CHECK_ROWS
    n = 4 * step + step // 2
    lower = [(step - 1, step - 2), (step, step - 1), (n - 1, n - 2), (n - 1, 0)]

    def test_check_layout(self):
        assert self.n % self.step != 0 and self.n > 2 * self.step

    @pytest.mark.parametrize("i,j", lower)
    def test_lower_triangle_checked_in_every_block(self, i, j):
        x = np.random.default_rng(11).normal(size=(self.n, 2))
        mat = build_rbf_kernel(x, estimate_bandwidth(x)).entries.copy()
        eigendecompose(mat)
        mat[i, j] += 1e-5
        with pytest.raises(NumericalFailure, match="reconstruction residual"):
            eigendecompose(mat)

    def test_no_square_temporary_after_the_factor(self, monkeypatch):
        # after the factor, the decomposition and its blocked reconstruction
        # check hold less than half an n x n float64 array (a whole n x n
        # reconstruction took about 9 n² bytes)
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


def _line_kernel(points) -> np.ndarray:
    # points 3 apart on a line: distinct points give a well-conditioned
    # kernel, so the numerical rank is the number of distinct points
    x = 3.0 * np.asarray(points, dtype=float)
    return build_rbf_kernel(x, 1.0).entries


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
        mat = build_rbf_kernel(x, estimate_bandwidth(x), s).entries
        spec = eigendecompose(mat)
        lam, vec = spec.eigenvalues, spec.eigenvectors
        r = vec.shape[1]
        # L = V diag(lam) V^T + R with R PSD, so by Weyl every eigenvalue
        # moves by at most ||R|| <= trace R, which is at most n * PIVOT_TOL
        trace_residual = np.trace(mat) - lam.sum()
        assert -1e-9 <= trace_residual <= n * PIVOT_TOL + 1e-9
        dense = np.linalg.eigvalsh(mat)[::-1]
        assert np.abs(lam - dense).max() <= trace_residual + 1e-9
        assert np.all(lam[r:] == 0.0)
        gram = vec.T @ vec - np.eye(r)
        assert np.abs(gram).max(initial=0.0) <= 1e-8
        assert np.abs((vec * lam[:r]) @ vec.T - mat).max() <= 1e-6

    def test_duplicated_points_give_rank_of_distinct_points(self):
        # 6 distinct points of 9: the factor stops at rank 6
        mat = _line_kernel([0, 1, 2, 3, 4, 5, 0, 1, 2])
        spec = eigendecompose(mat)
        assert spec.eigenvectors.shape == (9, 6)
        assert np.all(spec.eigenvalues[6:] == 0.0)
        dense = np.linalg.eigvalsh(mat)[::-1]
        assert np.abs(spec.eigenvalues - dense).max() <= 1e-12

    @pytest.mark.parametrize("n, s", [(9, 1.0), (300, 0.02)])
    def test_full_rank_kernel(self, n, s):
        # distinct points, or a narrow bandwidth: r = n, and the factor, the
        # n x n QR and the n x n eigh still give the exact eigensystem
        if n == 9:
            mat = _line_kernel(range(9))
        else:
            x = np.random.default_rng(5).normal(size=(n, 3))
            mat = build_rbf_kernel(x, estimate_bandwidth(x), s).entries
        spec = eigendecompose(mat)
        vec = spec.eigenvectors
        assert vec.shape == (n, n)
        dense = np.linalg.eigvalsh(mat)[::-1]
        assert np.abs(spec.eigenvalues - dense).max() <= 1e-12
        assert np.abs(vec.T @ vec - np.eye(n)).max() <= 1e-8
        assert np.abs((vec * spec.eigenvalues) @ vec.T - mat).max() <= 1e-6

    def test_zero_matrix_has_rank_zero(self):
        spec = eigendecompose(np.zeros((4, 4)))
        assert spec.eigenvectors.shape == (4, 0)
        assert np.array_equal(spec.eigenvalues, np.zeros(4))
        assert spec.log_det_plus_identity() == 0.0

    @pytest.mark.parametrize(
        "mat",
        [np.diag([1.0, 1.0, 1.0, -1.0]), -np.eye(3), np.full((3, 3), np.nan)],
        ids=["negative-pivot", "negative-diagonal", "nan"],
    )
    def test_non_psd_rejected(self, mat):
        with pytest.raises(NumericalFailure, match="not PSD"):
            eigendecompose(mat)

    def test_small_solver_failure_reported(self, monkeypatch):
        def boom(_):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(np.linalg, "eigh", boom)
        with pytest.raises(NumericalFailure, match="converge"):
            eigendecompose(np.ones((3, 3)))  # rank 1: the r x r problem

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
        expected, k_expected = compact_labels(np.argmin(ref, axis=0))
        part = voronoi_assign(x, idx)
        assert np.array_equal(part.labels, expected) and part.k == k_expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(x=_point_sets(), s=st.floats(0.05, 4.0))
    def test_factor_matches_dpstrf(self, x, s):
        try:
            sigma2 = estimate_bandwidth(x)
        except DegenerateData:  # every row the same
            return
        k = build_rbf_kernel(x, sigma2, s)
        n = k.n
        rank = kernel_module._pivoted_cholesky(k, n).shape[1]
        ref_rank, ref_lam = lapack_pivoted_spectrum(k.entries, PIVOT_TOL)
        assert rank == ref_rank
        lam = eigendecompose(k).eigenvalues
        # each spectrum lies below the kernel's by at most its trace residual
        trace_r = max(n - lam.sum(), n - ref_lam.sum())
        assert np.abs(lam - ref_lam).max() <= trace_r + 1e-9
