import numpy as np
import pytest

from dppcluster import (
    BandwidthConfig,
    DegenerateData,
    KernelMatrix,
    NumericalFailure,
    ShapeMismatch,
    build_rbf_kernel,
    eigendecompose,
    estimate_bandwidth,
    pairwise_sq_dists,
)
from dppcluster.kernel import as_data_matrix


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
        rng = np.random.default_rng(1)
        x = rng.normal(size=(8, 2))
        d2 = pairwise_sq_dists(x)
        assert estimate_bandwidth(x) == pytest.approx(estimate_bandwidth(x, sq_dists=d2))


class TestRbfKernel:
    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 2))
        k = build_rbf_kernel(x, BandwidthConfig(estimate_bandwidth(x)))
        assert np.all(np.diag(k.entries) == 1.0)

    def test_unit_exponent_value(self):
        # squared distance equal to 2 s sigma2 gives exactly exp(-1)
        sigma2, s = 2.0, 1.5
        d = np.sqrt(2 * s * sigma2)
        x = np.array([[0.0], [d]])
        k = build_rbf_kernel(x, BandwidthConfig(sigma2, s))
        assert k.entries[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_translation_invariance_exact(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0], [5.0, 1.0]])
        cfg = BandwidthConfig(estimate_bandwidth(x))
        k1 = build_rbf_kernel(x, cfg)
        k2 = build_rbf_kernel(x + np.array([7.0, -3.0]), cfg)
        assert np.array_equal(k1.entries, k2.entries)

    def test_scale_invariance_with_estimated_bandwidth(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(12, 4))
        k1 = build_rbf_kernel(x, BandwidthConfig(estimate_bandwidth(x)))
        y = 3.7 * x
        k2 = build_rbf_kernel(y, BandwidthConfig(estimate_bandwidth(y)))
        assert np.abs(k1.entries - k2.entries).max() <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        cfg = BandwidthConfig(estimate_bandwidth(x))
        k1 = build_rbf_kernel(x, cfg)
        k2 = build_rbf_kernel(x @ q.T, cfg)
        assert np.abs(k1.entries - k2.entries).max() <= 1e-10

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(30, 5))
        k = build_rbf_kernel(x, BandwidthConfig(estimate_bandwidth(x)))
        assert np.array_equal(k.entries, k.entries.T)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(15, 2))
        k = build_rbf_kernel(x, BandwidthConfig(estimate_bandwidth(x)))
        assert k.entries.min() > 0.0
        assert k.entries.max() == 1.0

    def test_kernel_matrix_validation(self):
        with pytest.raises(NumericalFailure):
            KernelMatrix(np.array([[1.0, 0.5], [0.3, 1.0]]))  # asymmetric
        with pytest.raises(NumericalFailure):
            KernelMatrix(np.array([[0.9, 0.5], [0.5, 1.0]]))  # bad diagonal
        with pytest.raises(NumericalFailure):
            KernelMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]))  # out of range

    def test_immutability(self):
        k = build_rbf_kernel(np.array([[0.0], [1.0]]), BandwidthConfig(1.0))
        with pytest.raises(ValueError):
            k.entries[0, 1] = 0.5


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
        k = build_rbf_kernel(x, BandwidthConfig(estimate_bandwidth(x)))
        spec = eigendecompose(k)
        recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
        assert np.abs(recon - k.entries).max() <= 1e-6
        gram = spec.eigenvectors.T @ spec.eigenvectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-8

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 3))
        k = build_rbf_kernel(x, BandwidthConfig(estimate_bandwidth(x)))
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

    def test_non_orthonormal_basis_fails_orthonormality(self, monkeypatch):
        mat = self._psd_matrix()
        vals, vecs = np.linalg.eigh(mat)
        vecs = vecs.copy()
        vecs[:, 2] += 1e-3 * vecs[:, 3]
        monkeypatch.setattr(np.linalg, "eigh", lambda _: (vals, vecs))
        with pytest.raises(NumericalFailure, match="orthonormality"):
            eigendecompose(mat)


def test_pairwise_sq_dists_symmetric_zero_diag():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(7, 3))
    d2 = pairwise_sq_dists(x)
    assert np.array_equal(d2, d2.T)
    assert np.all(np.diag(d2) == 0.0)
    assert d2[0, 1] == pytest.approx(((x[0] - x[1]) ** 2).sum())
