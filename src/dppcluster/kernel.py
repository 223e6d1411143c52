"""Gaussian similarity kernel: bandwidth estimation, matrix construction,
spectral decomposition.

The kernel matrix is the one similarity structure shared by the generator
sampler, the consensus machinery and the validation indices.  It is built
once per dataset and treated as immutable afterwards, so it can be read
from any number of concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .errors import ConfigError, DegenerateData, NumericalFailure, ShapeMismatch

__all__ = [
    "BandwidthConfig",
    "KernelMatrix",
    "SpectralDecomposition",
    "as_data_matrix",
    "pairwise_sq_dists",
    "estimate_bandwidth",
    "build_rbf_kernel",
    "eigendecompose",
]

# RBF matrices are PSD in exact arithmetic; eigenvalues below -PSD_TOL * n
# signal upstream corruption rather than harmless rounding.
PSD_TOL = 1e-8


def as_data_matrix(values) -> np.ndarray:
    """Validate and return the data as an (n, p) float array.

    Rejects anything that is not a finite 2-d matrix with at least two rows;
    a 1-d array is promoted to a single-feature column.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ShapeMismatch(f"expected an (n, p) data matrix, got shape {x.shape}")
    if x.shape[0] < 2:
        raise DegenerateData("need at least two observations")
    if not np.all(np.isfinite(x)):
        raise DegenerateData("data contains NaN or infinite entries")
    return x


def pairwise_sq_dists(data) -> np.ndarray:
    """All pairwise squared Euclidean distances as an exactly symmetric
    (n, n) array with zero diagonal.

    Computed once per dataset and shared between kernel construction and
    Voronoi assignment.
    """
    x = as_data_matrix(data)
    return squareform(pdist(x, metric="sqeuclidean"))


def estimate_bandwidth(data, sq_dists: np.ndarray | None = None) -> float:
    """Squared-bandwidth estimate: the mean of all pairwise squared
    Euclidean distances.

    Raises DegenerateData when every observation coincides, in which case
    the caller must supply an explicit bandwidth instead.
    """
    if sq_dists is None:
        x = as_data_matrix(data)
        vals = pdist(x, metric="sqeuclidean")
    else:
        d2 = np.asarray(sq_dists, dtype=float)
        vals = d2[np.triu_indices(d2.shape[0], k=1)]
    sigma2 = float(vals.mean())
    if sigma2 <= 0.0:
        raise DegenerateData("all observations identical; bandwidth is undefined")
    return sigma2


@dataclass(frozen=True)
class BandwidthConfig:
    """Squared bandwidth estimate plus the dimensionless tuning factor s."""

    sigma2_hat: float
    s: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma2_hat) and self.sigma2_hat > 0):
            raise ConfigError(f"sigma2_hat must be positive, got {self.sigma2_hat!r}")
        if not (np.isfinite(self.s) and self.s > 0):
            raise ConfigError(f"bandwidth factor s must be positive, got {self.s!r}")


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric similarity matrix with unit diagonal and entries in [0, 1].

    Immutable after construction (the backing array is marked read-only).
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ShapeMismatch(f"kernel matrix must be square, got shape {e.shape}")
        if not np.array_equal(e, e.T):
            raise NumericalFailure("kernel matrix is not exactly symmetric")
        if not np.all(np.diag(e) == 1.0):
            raise NumericalFailure("kernel diagonal must be exactly 1")
        if e.min() < 0.0 or e.max() > 1.0:
            raise NumericalFailure("kernel entries fall outside [0, 1]")
        object.__setattr__(self, "entries", e)
        e.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def build_rbf_kernel(data, cfg: BandwidthConfig, sq_dists: np.ndarray | None = None) -> KernelMatrix:
    """Gaussian kernel matrix exp(-d^2 / (2 s sigma2_hat)) over all pairs.

    The diagonal is set to exactly 1 and symmetry is inherited from the
    shared squared-distance matrix.
    """
    if sq_dists is None:
        sq_dists = pairwise_sq_dists(data)
    d2 = np.asarray(sq_dists, dtype=float)
    entries = np.exp(d2 / (-2.0 * cfg.s * cfg.sigma2_hat))
    np.fill_diagonal(entries, 1.0)
    return KernelMatrix(entries)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthonormal eigensystem of a kernel matrix, eigenvalues descending.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]``; all stored
    eigenvalues are nonnegative (tolerable negatives are clamped upstream).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        if lam.ndim != 1 or vec.ndim != 2 or vec.shape != (lam.size, lam.size):
            raise ShapeMismatch("eigensystem shapes are inconsistent")
        if lam.min(initial=0.0) < 0.0:
            raise NumericalFailure("stored eigenvalues must be nonnegative")
        if np.any(np.diff(lam) > 0):
            raise NumericalFailure("eigenvalues must be sorted in descending order")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", vec)
        lam.setflags(write=False)
        vec.setflags(write=False)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def log_det_plus_identity(self) -> float:
        """log det(L + I), the normalizing constant of the point process."""
        return float(np.log1p(self.eigenvalues).sum())


def eigendecompose(L) -> SpectralDecomposition:
    """Full symmetric eigendecomposition with PSD clamping.

    Eigenvalues in [-PSD_TOL * n, 0) are clamped to zero; anything more
    negative aborts with NumericalFailure, as do a non-convergent solver,
    loss of orthonormality, or a reconstruction residual above 1e-6.
    """
    mat = np.asarray(L, dtype=float)
    n = mat.shape[0]
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver did not converge: {exc}") from exc
    if vals[0] < -PSD_TOL * n:
        raise NumericalFailure(
            f"matrix is not PSD within tolerance: min eigenvalue {vals[0]:.3e}"
        )
    lam = np.clip(vals, 0.0, None)[::-1].copy()
    vec = np.ascontiguousarray(vecs[:, ::-1])
    gram = vec.T @ vec
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    if np.abs(gram).max() > 1e-8:
        raise NumericalFailure("eigenvectors lost orthonormality")
    # V diag(lam) V^T as W W^T with W = V sqrt(lam): one symmetric rank-k
    # update instead of a general product, then the difference in place
    w = vec * np.sqrt(lam)
    recon = w @ w.T
    recon -= mat
    residual = np.abs(recon, out=recon).max()
    if residual > 1e-6:
        raise NumericalFailure(f"spectral reconstruction residual {residual:.3e} exceeds 1e-6")
    return SpectralDecomposition(lam, vec)
