"""Gaussian similarity kernel: bandwidth estimation, the implicit kernel
matrix, spectral decomposition.

The kernel is the one similarity structure shared by the generator sampler,
the consensus machinery and the validation indices.  It is defined once per
dataset by the pairwise squared distances and the bandwidth, and treated as
immutable afterwards, so it can be read from any number of concurrent
workers.  It is held implicitly: ``KernelMatrix`` keeps the distances and
exponentiates only the rows and blocks a caller asks for, so no n x n
kernel exists unless a caller materialises one.

The Gaussian kernel of clustered data has low numerical rank, so its
eigensystem comes from a pivoted Cholesky factor L ~ F F^T (Harbrecht,
Peters & Schneider 2012) that reads one kernel row per pivot, and an r x r
problem, r the rank of F; the decomposition holds r eigenvectors and n
eigenvalues, zero past r.  Everything here is numpy: the factor is a loop
over kernel rows, with no LAPACK ``dpstrf`` and no n x n work copy, and the
QR and the r x r eigh are numpy's, so scipy stays off the clustering path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateData, NumericalFailure, ShapeMismatch

__all__ = [
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

# Rows per block of the pairwise distances: a block and its per-feature
# difference stay within a few megabytes of cache at n = 1500.
_DIST_ROWS = 64


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


def sq_dists_between(a: np.ndarray, b: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` (m, p) and of
    ``b`` (w, p), as an (m, w) array, written to ``out`` when given;
    ``scratch`` is an optional second (m, w) array for the differences.

    The squared differences are added feature by feature in feature order,
    the summation of scipy's ``pdist``/``cdist``, so every entry is
    bit-equal to theirs.  Overflow to infinity is left quiet: the bandwidth
    estimate reports it.
    """
    shape = (a.shape[0], b.shape[0])
    out = np.empty(shape) if out is None else out
    diff = np.empty(shape) if scratch is None else scratch
    a, b = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)  # one contiguous row per feature
    with np.errstate(over="ignore"):
        np.subtract(a[0, :, None], b[0], out=out)
        np.multiply(out, out, out=out)
        for f in range(1, a.shape[0]):
            np.subtract(a[f, :, None], b[f], out=diff)
            np.multiply(diff, diff, out=diff)
            out += diff
    return out


def pairwise_sq_dists(data) -> np.ndarray:
    """All pairwise squared Euclidean distances as a read-only, exactly
    symmetric (n, n) array with zero diagonal.

    Built in blocks of _DIST_ROWS rows of the upper trapezoid, each mirrored
    into the lower one, and bit-equal to ``squareform(pdist(x,
    "sqeuclidean"))``.  Computed once per dataset and shared between the
    kernel and Voronoi assignment.
    """
    x = as_data_matrix(data)
    n = x.shape[0]
    out = np.empty((n, n))
    buffers = np.empty((2, min(n, _DIST_ROWS) * n))  # one block and its differences
    for top in range(0, n, _DIST_ROWS):
        rows = x[top : top + _DIST_ROWS]
        shape = (rows.shape[0], n - top)
        block, scratch = (buf[: shape[0] * shape[1]].reshape(shape) for buf in buffers)
        sq_dists_between(rows, x[top:], block, scratch)
        out[top : top + shape[0], top:] = block
        out[top:, top : top + shape[0]] = block.T
    out.setflags(write=False)
    return out


def estimate_bandwidth(data, sq_dists: np.ndarray | None = None) -> float:
    """Squared-bandwidth estimate: the mean of all pairwise squared
    Euclidean distances.

    Raises DegenerateData when every observation coincides, in which case
    the caller must supply an explicit bandwidth instead, and when the
    squared distances overflow to infinity.
    """
    d2 = pairwise_sq_dists(data) if sq_dists is None else np.asarray(sq_dists, dtype=float)
    # the upper triangle in row order, the order pdist returns, copied row
    # by row: no n x n mask
    n = d2.shape[0]
    vals = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        row = d2[i, i + 1 :]
        vals[start : start + row.size] = row
        start += row.size
    with np.errstate(over="ignore"):
        sigma2 = float(vals.mean())
    if not np.isfinite(sigma2):
        raise DegenerateData(
            "squared distances overflow: their mean is not finite; rescale the data"
        )
    if sigma2 <= 0.0:
        raise DegenerateData("all observations identical; bandwidth is undefined")
    return sigma2


@dataclass(frozen=True)
class KernelMatrix:
    """The Gaussian kernel exp(d2 / scale) of a squared-distance matrix d2,
    held implicitly.

    ``scale`` is -2 s sigma2_hat.  d2 must be square, exactly symmetric,
    nonnegative and zero on the diagonal, so the kernel is exactly
    symmetric with unit diagonal and entries in [0, 1].  The distances are
    kept read-only: a read-only float64 array is shared (``pairwise_sq_dists``
    returns one), anything else is copied.

    Indexing (``K[i]``, ``K[a:b, c:]``, ``K[np.ix_(idx, idx)]``) returns a
    new array holding exp(d2[index] / scale), exponentiated in place, so a
    row or block costs its own size and nothing else; every entry is
    bit-equal to the same entry of ``entries``.  ``entries`` (and
    ``np.asarray``) materialise the dense n x n kernel, read-only, anew on
    every access.
    """

    sq_dists: np.ndarray
    scale: float

    def __post_init__(self):
        d2 = np.asarray(self.sq_dists, dtype=float)
        if d2.ndim != 2 or d2.shape[0] != d2.shape[1]:
            raise ShapeMismatch(f"distance matrix must be square, got shape {d2.shape}")
        if not all(
            np.array_equal(d2[top : top + _CHECK_ROWS, top:], d2[top:, top : top + _CHECK_ROWS].T)
            for top in range(0, d2.shape[0], _CHECK_ROWS)
        ):
            raise NumericalFailure("squared distances are not exactly symmetric")
        if not np.all(d2.diagonal() == 0.0):
            raise NumericalFailure("squared-distance diagonal must be exactly 0")
        if not d2.min(initial=0.0) >= 0.0:
            raise NumericalFailure("squared distances must be nonnegative")
        scale = float(self.scale)
        if not (np.isfinite(scale) and scale < 0.0):
            raise NumericalFailure(f"kernel scale must be finite and negative, got {scale!r}")
        if d2.flags.writeable:
            d2 = d2.copy()
            d2.setflags(write=False)
        object.__setattr__(self, "sq_dists", d2)
        object.__setattr__(self, "scale", scale)

    @property
    def n(self) -> int:
        return self.sq_dists.shape[0]

    def __getitem__(self, index) -> np.ndarray:
        out = np.asarray(self.sq_dists[index] / self.scale)  # a new array, 0-d for one entry
        return np.exp(out, out=out)

    @property
    def entries(self) -> np.ndarray:
        e = self[...]
        e.setflags(write=False)
        return e

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def build_rbf_kernel(
    data, sigma2_hat: float, s: float = 1.0, sq_dists: np.ndarray | None = None
) -> KernelMatrix:
    """Gaussian kernel exp(-d^2 / (2 s sigma2_hat)) over all pairs, held
    implicitly over the shared squared-distance matrix.

    ``sigma2_hat`` is the squared-bandwidth estimate and ``s`` the
    dimensionless tuning factor; both must be positive and finite
    (ConfigError).  The diagonal is exactly 1 (exp(-0) = 1) and symmetry is
    inherited from the distances.
    """
    for name, value in (("sigma2_hat", sigma2_hat), ("bandwidth factor s", s)):
        if not 0.0 < value < math.inf:  # also rejects NaN
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    if sq_dists is None:
        sq_dists = pairwise_sq_dists(data)
    return KernelMatrix(sq_dists, -2.0 * s * sigma2_hat)


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


def _pivoted_cholesky(rows, n: int) -> np.ndarray:
    """Pivoted Cholesky factor of the n x n PSD matrix whose rows ``rows[i]``
    gives, stopped once every residual diagonal entry is at most PIVOT_TOL.

    ``rows`` is a dense matrix or a ``KernelMatrix``; each step reads one
    row, so an implicit kernel is never materialised and no n x n work
    array is made.  Step t takes the largest residual diagonal entry d_i
    (the first, on ties) and computes column t of the factor as
    (L[i] - sum over s < t of G[s, i] G[s]) / sqrt(d_i), set to exactly 0
    on the earlier pivots and to sqrt(d_i) on i, the entries a factor
    triangular in pivot order holds; its squares then lower the residual
    diagonal.

    Returns the (n, r) factor F, rows in natural order and Fortran-ordered,
    with L ~ F F^T.  Raises NumericalFailure when a residual diagonal entry
    ends below -PSD_TOL * n, which no PSD matrix leaves, or is NaN.
    """
    every = np.arange(n)
    residual = np.array(rows[every, every], dtype=float)
    square = np.empty(n)
    g = np.empty((min(n, 64), n))  # row t: column t of the factor
    pivots = np.empty(n, dtype=np.intp)
    t = 0
    while t < n:
        i = int(residual.argmax())
        d = float(residual[i])
        if not d > PIVOT_TOL:  # also stops on NaN
            break
        if t == g.shape[0]:
            grown = np.empty((min(n, 2 * t), n))
            grown[:t] = g
            g = grown
        col = g[t]
        np.dot(g[:t, i], g[:t], out=col)
        np.subtract(rows[i], col, out=col)
        root = math.sqrt(d)
        col *= 1.0 / root
        col[pivots[:t]] = 0.0
        col[i] = root
        pivots[t] = i
        np.multiply(col, col, out=square)
        residual -= square
        residual[i] = 0.0
        t += 1
    if not residual.min(initial=0.0) >= -PSD_TOL * n:
        raise NumericalFailure(
            f"matrix is not PSD within tolerance: residual diagonal {residual.min():.3e}"
        )
    return g[:t].T


def eigendecompose(L) -> SpectralDecomposition:
    """Symmetric eigendecomposition of a PSD kernel, exact for its pivoted
    Cholesky approximation F F^T.

    ``L`` is a ``KernelMatrix``, read one row or block at a time, or any
    dense square matrix.  The (n, r) factor F (``_pivoted_cholesky``) has
    the QR decomposition F = Q R, and the spectrum comes from the r x r
    matrix R R^T = U diag(lambda) U^T, giving V = Q U (the dual
    representation of Kulesza & Taskar 2012, sec. 3.3).  Only R is formed;
    V is F (R^-1 U), one r x r solve and one n x r x r product, which saves
    building Q (a second LAPACK pass over the factor and its copies, about
    15 ms at n = 1500, rank 369).  R's conditioning enters V only through
    that solve, and the orthonormality check below bounds its effect.  The
    eigenvalues past r are exactly 0.  The path is the same at every rank;
    a full-rank kernel (a narrow bandwidth) pays the factor, an n x n QR,
    the solve and the product on top of the n x n eigh.

    Eigenvalues in [-PSD_TOL * n, 0) are clamped to zero; anything more
    negative aborts with NumericalFailure, as do a residual diagonal entry
    of the factor below -PSD_TOL * n, a non-convergent solver, loss of
    orthonormality, or a reconstruction residual against L above
    RECONSTRUCTION_TOL.  The decomposed matrix F F^T is PSD by
    construction, and what it leaves out of L is bounded only by that
    residual: an indefinite L within RECONSTRUCTION_TOL of F F^T passes.

    The reconstruction check runs in row blocks of V diag(lambda) V^T's
    upper trapezoid, and no n x n temporary is made.  A dense L's blocks
    are compared with the same rows of L and, transposed, with the same
    columns, so every entry of both triangles is checked.  A
    ``KernelMatrix`` is exactly symmetric by construction (its distances
    are checked for it), so its upper trapezoid covers every entry; those
    rows are regenerated block by block from the distances.
    """
    if isinstance(L, KernelMatrix):
        mat, n, dense = L, L.n, False
    else:
        mat = np.asarray(L, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ShapeMismatch(f"expected a square matrix, got shape {mat.shape}")
        n, dense = mat.shape[0], True
    factor = _pivoted_cholesky(mat, n)
    r = np.linalg.qr(factor, mode="r")
    try:
        vals, u = np.linalg.eigh(r @ r.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver did not converge: {exc}") from exc
    vec = factor @ np.linalg.solve(r, u[:, ::-1])  # Q U, largest eigenvalue first
    del factor
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
    # upper trapezoid at a time: the flops of one symmetric rank-r update
    w = vec * np.sqrt(lam[: vec.shape[1]])
    residual = 0.0
    for top in range(0, n, _CHECK_ROWS):
        rows = slice(top, top + _CHECK_ROWS)
        block = w[rows] @ w[top:].T
        if dense:
            lower = block - mat[top:, rows].T
            residual = np.max((residual, np.abs(lower, out=lower).max()))  # keeps NaN
        block -= mat[rows, top:]
        residual = np.max((residual, np.abs(block, out=block).max()))
    if not residual <= RECONSTRUCTION_TOL:
        raise NumericalFailure(
            f"spectral reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:g}"
        )
    return SpectralDecomposition(lam, vec)
