"""Gaussian similarity kernel: bandwidth estimation, matrix construction,
spectral decomposition.

The kernel matrix is the one similarity structure shared by the generator
sampler, the consensus machinery and the validation indices.  It is built
once per dataset and treated as immutable afterwards, so it can be read
from any number of concurrent workers.

The Gaussian kernel of clustered data has low numerical rank, so its
eigensystem comes from a pivoted Cholesky factor L ~ F F^T (Harbrecht,
Peters & Schneider 2012) and an r x r problem, r the rank of F; the
decomposition holds r eigenvectors and n eigenvalues, zero past r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg
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

# RBF matrices are PSD in exact arithmetic; eigenvalues (or residual
# diagonal entries of the pivoted Cholesky factor) below -PSD_TOL * n signal
# upstream corruption rather than harmless rounding.
PSD_TOL = 1e-8

# Largest entry |L - V diag(lambda) V^T| a decomposition may leave.
RECONSTRUCTION_TOL = 1e-6

# The pivoted Cholesky factor stops once every residual diagonal entry is at
# or below this.  The residual is PSD, so |R_ij| <= sqrt(R_ii R_jj) <= the
# tolerance, and the reconstruction check sees almost exactly that: 9.9e-7 at
# a tolerance of 1e-6, where rounding could cross RECONSTRUCTION_TOL, and
# 4.95e-7 at this tolerance (n = 1500, rank 369).
PIVOT_TOL = 5e-7

# Rows per block of the reconstruction check: its temporaries are two
# blocks of 64 n floats, and thinner blocks ran slower at n = 5000.
_CHECK_ROWS = 64


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
    the caller must supply an explicit bandwidth instead, and when the
    squared distances overflow to infinity.
    """
    if sq_dists is None:
        x = as_data_matrix(data)
        vals = pdist(x, metric="sqeuclidean")
    else:
        d2 = np.asarray(sq_dists, dtype=float)
        # the upper triangle in row order, the order pdist returns
        vals = d2[~np.tri(d2.shape[0], dtype=bool)]
    sigma2 = float(vals.mean())
    if not np.isfinite(sigma2):
        raise DegenerateData(
            "squared distances overflow: their mean is not finite; rescale the data"
        )
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
    """Orthonormal eigensystem of a PSD kernel matrix of rank r.

    ``eigenvalues`` holds all n eigenvalues, finite, nonnegative and
    descending, and every one past r is exactly 0; ``eigenvectors`` is
    (n, r), column i paired with ``eigenvalues[i]``.  A full-rank
    decomposition has r = n.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        vec = np.asarray(self.eigenvectors, dtype=float)
        if lam.ndim != 1 or vec.ndim != 2 or vec.shape[0] != lam.size or vec.shape[1] > lam.size:
            raise ShapeMismatch("eigensystem shapes are inconsistent")
        if not np.all(np.isfinite(lam)):
            raise NumericalFailure("eigenvalues must be finite")
        if lam.min(initial=0.0) < 0.0:
            raise NumericalFailure("stored eigenvalues must be nonnegative")
        if np.any(np.diff(lam) > 0):
            raise NumericalFailure("eigenvalues must be sorted in descending order")
        if np.any(lam[vec.shape[1] :] != 0.0):
            raise NumericalFailure("eigenvalues without an eigenvector must be exactly 0")
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


def _pivoted_cholesky(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK's pivoted Cholesky factor of ``mat``, stopped once every
    residual diagonal entry is at most PIVOT_TOL.

    Returns ``(factor, order)``: the (n, r) factor, in Fortran order for
    LAPACK's QR, with rows in pivot order, so that
    ``mat[np.ix_(order, order)] ~ factor @ factor.T``.  Raises
    NumericalFailure when LAPACK rejects the call or a residual diagonal
    entry falls below -PSD_TOL * n, which no PSD matrix leaves.
    """
    n = mat.shape[0]
    # a symmetric matrix is its own transpose, and the transpose is already
    # in the column order LAPACK reads, so no reordering copy is made
    c, piv, rank, info = linalg.lapack.dpstrf(mat.T, tol=PIVOT_TOL, lower=1)
    if info < 0:
        raise NumericalFailure(f"pivoted Cholesky rejected argument {-info}")
    top = c[:rank, :rank]
    top[...] = np.tril(top)  # above the factor's diagonal lies the input
    factor = c[:, :rank].copy(order="F")
    del c, top  # the n x n work array goes before the caller's QR
    order = piv - 1
    residual = mat.diagonal()[order] - np.einsum("ij,ij->i", factor, factor)
    if not residual.min(initial=0.0) >= -PSD_TOL * n:
        raise NumericalFailure(
            f"matrix is not PSD within tolerance: residual diagonal {residual.min():.3e}"
        )
    return factor, order


def eigendecompose(L) -> SpectralDecomposition:
    """Symmetric eigendecomposition of a PSD kernel, exact for its pivoted
    Cholesky approximation F F^T.

    The (n, r) factor F is orthonormalised by one QR, F = Q R, and the
    spectrum comes from the r x r matrix R R^T = U diag(lambda) U^T, giving
    V = Q U (the dual representation of Kulesza & Taskar 2012, sec. 3.3).
    The eigenvalues past r are exactly 0.  The path is the same at every
    rank; a full-rank kernel (a narrow bandwidth) pays the factor, an n x n
    QR and the product Q U on top of the n x n eigh.

    Eigenvalues in [-PSD_TOL * n, 0) are clamped to zero; anything more
    negative aborts with NumericalFailure, as do a residual diagonal entry
    of the factor below -PSD_TOL * n, a non-convergent solver, loss of
    orthonormality, or a reconstruction residual against L above
    RECONSTRUCTION_TOL.  The decomposed matrix F F^T is PSD by
    construction, and what it leaves out of L is bounded only by that
    residual: an indefinite L within RECONSTRUCTION_TOL of F F^T passes.

    The reconstruction check runs in row blocks of V diag(lambda) V^T's
    upper trapezoid, each compared with the same rows of L and, transposed,
    with the same columns, so every entry of both triangles of L is checked
    and no n x n temporary is made; the only n x n array besides L is
    LAPACK's work copy in the factorization.
    """
    mat = np.asarray(L, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {mat.shape}")
    n = mat.shape[0]
    factor, order = _pivoted_cholesky(mat)
    rank = factor.shape[1]
    q, r = linalg.qr(factor, mode="economic", overwrite_a=True, check_finite=False)
    del factor
    try:
        vals, u = np.linalg.eigh(r @ r.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver did not converge: {exc}") from exc
    vec = np.empty((n, rank))
    vec[order] = (q @ u)[:, ::-1]  # back from pivot order, largest eigenvalue first
    del q
    if vals.size and vals[0] < -PSD_TOL * n:
        raise NumericalFailure(
            f"matrix is not PSD within tolerance: min eigenvalue {vals[0]:.3e}"
        )
    lam = np.zeros(n)
    lam[: vals.size] = np.clip(vals, 0.0, None)[::-1]
    gram = vec.T @ vec
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    if not np.abs(gram).max(initial=0.0) <= 1e-8:
        raise NumericalFailure("eigenvectors lost orthonormality")
    # V diag(lam) V^T as W W^T with W = V sqrt(lam), one row block of its
    # upper trapezoid at a time: the flops of one symmetric rank-r update,
    # and each block checked against both triangles of L
    w = vec * np.sqrt(lam[: vec.shape[1]])
    residual = 0.0
    for top in range(0, n, _CHECK_ROWS):
        rows = slice(top, top + _CHECK_ROWS)
        block = w[rows] @ w[top:].T
        lower = block - mat[top:, rows].T
        block -= mat[rows, top:]
        upper = np.abs(block, out=block).max()
        residual = np.max((residual, upper, np.abs(lower, out=lower).max()))  # keeps NaN
    if not residual <= RECONSTRUCTION_TOL:
        raise NumericalFailure(
            f"spectral reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:g}"
        )
    return SpectralDecomposition(lam, vec)
