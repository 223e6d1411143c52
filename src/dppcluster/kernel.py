"""Gaussian similarity kernel: bandwidth estimation, the matrix-free
kernel matrix, spectral decomposition.

The kernel is the one similarity structure shared by the generator sampler,
the consensus machinery and the validation indices.  It is defined once per
dataset by the data and the bandwidth, and treated as immutable afterwards,
so it can be read from any number of concurrent workers.  No n x n array
backs it: ``KernelMatrix`` keeps the (n, p) data and computes each row,
block or diagonal a caller asks for from the data, so neither the kernel nor
the squared distances exist unless a caller materialises them.

Entries come two ways (the bandwidth reads neither: one pass over the
centred data gives it).  Exact entries add the squared feature differences
in feature order, as scipy's ``pdist`` does, so each is bit-equal to
exp(d2 / scale) over the distances ``pairwise_sq_dists`` returns; the
pivoted factor and the subset blocks of the likelihood read these.  Expanded entries take d2 = |x|^2 + |y|^2 - 2 x.y of the centred
data from one matrix product per block, about a tenth of the cost; they
differ from the exact ones by at most a rounding bound that grows with p
(``expansion_error``), and serve passes over the whole kernel that only
need that accuracy, or that fall back to exact entries near a decision.

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
from functools import cached_property

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

# Rows per block of the reconstruction check: its temporaries are a few
# blocks of 64 n floats, and thinner blocks ran slower at n = 5000.
_CHECK_ROWS = 64

# Rows per block of V = F (R^-1 U), written over the factor F: a multiple
# of 12 and of 64, so OpenBLAS's Haswell kernel (12-row tiles) rounds every
# entry as one product over all rows does (checked at n = 150 to 3000).
_VEC_ROWS = 192

# Doubles per chunk of per-feature differences in exact distances: chunks
# of about 10 rows of 8 features at n = 1500 stay in cache and ran fastest.
_CHUNK = 2**16


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


def expansion_error(p: int) -> float:
    """Rounding bound of the centred expansion over p features, relative to
    (|x - c| + |y - c|)^2 for centre c: |x|^2 + |y|^2 - 2 x.y computed from
    the centred rows differs from the exact squared distance of x and y by
    at most this times that square.

    To first order in the unit roundoff eps the parts are 2 eps for
    centring the rows, (p + 2) eps for the exact summation and (2 p + 6) eps
    for the products and sums of the expansion; the bound leaves room for
    the roundings of the norms and scalings around them.
    """
    return (4 * p + 16) * np.finfo(float).eps


def _add_squares(diff: np.ndarray, out: np.ndarray) -> None:
    """out = sum over f in order of diff[f]^2, squaring ``diff`` in place."""
    np.square(diff, out=diff)
    np.copyto(out, diff[0])
    for f in range(1, diff.shape[0]):
        out += diff[f]


def _feature_sq_dists(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the squared distances between ``a`` and ``b`` to ``out``.

    ``a`` and ``b`` are feature-major, (p, ...), and their trailing axes
    broadcast to ``out.shape``.  The squared differences are added feature
    by feature in feature order, the summation of scipy's ``pdist`` and
    ``cdist``, so every entry is bit-equal to theirs whatever the shape.
    Past _CHUNK differences, runs in chunks along the first axis of
    ``out``.  Overflow to infinity is left quiet.
    """
    p = a.shape[0]
    with np.errstate(over="ignore"):
        if p * out.size <= _CHUNK:  # one chunk; also a 0-d out
            _add_squares(np.subtract(a, b), out)
            return out
        step = max(1, _CHUNK // (p * math.prod(out.shape[1:])))
        diff = np.empty((p, step) + out.shape[1:])
        for top in range(0, out.shape[0], step):
            acc = out[top : top + step]
            part = diff[:, : acc.shape[0]]
            np.subtract(
                a if a.shape[1] == 1 else a[:, top : top + step],
                b if b.shape[1] == 1 else b[:, top : top + step],
                out=part,
            )
            _add_squares(part, acc)
    return out


def sq_dists_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` (m, p) and of
    ``b`` (w, p), as a new (m, w) array, bit-equal to scipy's ``cdist``."""
    a, b = np.ascontiguousarray(np.transpose(a)), np.ascontiguousarray(np.transpose(b))
    return _feature_sq_dists(a[:, :, None], b[:, None, :], np.empty((a.shape[1], b.shape[1])))


def pairwise_sq_dists(data) -> np.ndarray:
    """All pairwise squared Euclidean distances as a read-only, exactly
    symmetric (n, n) array with zero diagonal, bit-equal to
    ``squareform(pdist(x, "sqeuclidean"))``.

    Nothing on the clustering path builds it: it is the reference the
    kernel's entries are defined against.  (x - y)^2 and (y - x)^2 are the
    same float, so the matrix is symmetric as computed.
    """
    x = as_data_matrix(data)
    out = sq_dists_between(x, x)
    out.setflags(write=False)
    return out


def _centred(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``x`` less their mean, xc, and their squared norms |xc|^2."""
    xc = x - x.mean(axis=0)
    return xc, np.einsum("ij,ij->i", xc, xc)


def estimate_bandwidth(data) -> float:
    """Squared-bandwidth estimate: the mean of all pairwise squared
    Euclidean distances.

    The sum over the pairs i < j of |x_i - x_j|^2 is n sum_i |x_i - m|^2
    for the mean m, so one pass over the centred rows xc gives it.  The
    rounding error d of the computed mean would add n |d|^2, which on data
    far from the origin can exceed the spread itself; the corrected
    two-pass form (Chan, Golub & LeVeque 1983) takes it out: sigma2 =
    2 (sum_i |xc_i|^2 - |sum_i xc_i|^2 / n) / (n - 1).  Raises
    DegenerateData when every observation coincides, in which case the
    caller must supply an explicit bandwidth instead, and when the squared
    distances overflow to infinity.
    """
    x = as_data_matrix(data)
    n = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        xc, sq = _centred(x)
        drift = xc.sum(axis=0)
        sigma2 = 2.0 * float(sq.sum() - drift @ drift / n) / (n - 1)
    if not np.isfinite(sigma2):
        raise DegenerateData(
            "squared distances overflow: their mean is not finite; rescale the data"
        )
    # the rounding of identical rows can leave a tiny sigma2 either side of 0
    if sigma2 <= 0.0 or (x == x[0]).all():
        raise DegenerateData("all observations identical; bandwidth is undefined")
    return sigma2


def _two_axes(index) -> tuple:
    """The row and the column selector of an index into an n x n matrix."""
    index = index if isinstance(index, tuple) else (index,)
    if len(index) == 2 and index[0] is not Ellipsis and index[1] is not Ellipsis:
        return index
    for at, part in enumerate(index):
        if part is Ellipsis:
            index = index[:at] + (slice(None),) * (3 - len(index)) + index[at + 1 :]
            break
    index += (slice(None),) * (2 - len(index))
    if len(index) != 2:
        raise IndexError(f"too many indices for a kernel matrix: {len(index)}")
    return index


@dataclass(frozen=True)
class KernelMatrix:
    """The Gaussian kernel exp(d2 / scale) of the rows of ``data``, d2 their
    squared Euclidean distances, held as the (n, p) data.

    ``scale`` is -2 s sigma2_hat, finite and negative, so the kernel is
    exactly symmetric with unit diagonal and entries in [0, 1].  The data
    must be finite (``as_data_matrix``) and is kept read-only: a read-only
    float64 array is shared, anything else is copied.

    Indexing returns a new array of exact entries computed from the data:
    a row ``K[i]``, row and column slices ``K[a:b, c:]``, a block
    ``K[np.ix_(rows, cols)]``, pairs elementwise (``K[idx, idx]`` is a
    diagonal) and ``K[...]``, with numpy's index semantics and the 0-d
    array of one entry.  A result costs its own size plus a chunk of
    per-feature differences, and every entry is bit-equal to
    exp(pairwise_sq_dists(data) / scale) at the same index.  ``entries``
    (and ``np.asarray``) materialise the dense n x n kernel, read-only,
    anew on every access.  ``expanded_block`` gives row blocks from the
    centred expansion instead, for passes over the whole kernel; its
    centred rows (``expansion``) also serve ``voronoi_assign``.
    """

    data: np.ndarray
    scale: float

    def __post_init__(self):
        x = as_data_matrix(self.data)
        if x.flags.writeable:
            x = x.copy()
            x.setflags(write=False)
        scale = float(self.scale)
        if not (np.isfinite(scale) and scale < 0.0):
            raise NumericalFailure(f"kernel scale must be finite and negative, got {scale!r}")
        object.__setattr__(self, "data", x)
        object.__setattr__(self, "scale", scale)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @cached_property
    def _features(self) -> np.ndarray:
        # one contiguous row per feature, which the exact entries read
        return np.ascontiguousarray(self.data.T)

    @cached_property
    def expansion(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The centred expansion of the data, computed once per kernel:
        ``left`` and ``right`` with left_i . right_j = d2'_ij / scale for
        the rows xc = data - mean, left_i = [xc_i, h_i, 1] and right_j =
        [-2 xc_j / scale, 1, h_j], h = |xc|^2 / scale; and |xc|^2."""
        xc, sq = _centred(self.data)
        h = sq / self.scale
        ones = np.ones_like(h)
        left = np.column_stack([xc, h, ones])
        right = np.column_stack([xc * (-2.0 / self.scale), ones, h])
        return left, right, sq

    def __getitem__(self, index) -> np.ndarray:
        rows, cols = _two_axes(index)
        features = self._features
        a, b = features[:, rows], features[:, cols]
        ra, rb = a.ndim - 1, b.ndim - 1
        if isinstance(rows, (slice, int, np.integer)) or isinstance(cols, (slice, int, np.integer)):
            # an outer product: row axes first, then column axes
            a = a.reshape(a.shape + (1,) * rb)
            b = b.reshape(b.shape[:1] + (1,) * ra + b.shape[1:])
        elif ra != rb:  # two index arrays, broadcast against each other
            a = a.reshape(a.shape[:1] + (1,) * (rb - ra) + a.shape[1:])
            b = b.reshape(b.shape[:1] + (1,) * (ra - rb) + b.shape[1:])
        # axes of one broadcast to the other; a mismatch raises in the subtraction
        shape = tuple(v if u == 1 else u for u, v in zip(a.shape[1:], b.shape[1:]))
        out = _feature_sq_dists(a, b, np.empty(shape))
        np.divide(out, self.scale, out=out)
        return np.exp(out, out=out)

    def expanded_block(self, top: int, stop: int, start: int = 0) -> tuple[np.ndarray, float]:
        """Rows [top, stop) and columns [start, n) of the kernel from the
        centred expansion, and a bound on their distance from the exact
        entries.

        One matrix product gives d2' / scale for the block.  Where d2' is
        within its rounding bound E = expansion_error(p) reach^2 of 0 (reach
        = max |xc_i| + max |xc_j| over the block's rows and columns), the
        exact d2 may be 0, and the entry is set to exactly 1, as it is for
        coinciding points and on the diagonal.  An entry left as it is lies
        within E / |scale| of the exact one, exp's slope being at most 1 on
        the negative axis, and one set to 1 within 2 E / |scale|; the bound
        adds expansion_error(p) for the roundings of the quotient and of exp.
        """
        left, right, sq = self.expansion
        block = left[top:stop] @ right[start:].T
        reach = math.sqrt(sq[top:stop].max(initial=0.0)) + math.sqrt(sq[start:].max(initial=0.0))
        rounding = expansion_error(self.data.shape[1])
        near_zero = rounding * reach * reach / -self.scale
        np.copyto(block, 0.0, where=block > -near_zero)
        np.exp(block, out=block)
        if start <= top:
            np.fill_diagonal(block[:, top - start :], 1.0)
        return block, float(2.0 * near_zero + rounding)

    @property
    def entries(self) -> np.ndarray:
        e = self[...]
        e.setflags(write=False)
        return e

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.entries, dtype=dtype)


def build_rbf_kernel(data, sigma2_hat: float, s: float = 1.0) -> KernelMatrix:
    """Gaussian kernel exp(-d^2 / (2 s sigma2_hat)) over all pairs of rows
    of ``data``, held as the data.

    ``sigma2_hat`` is the squared-bandwidth estimate and ``s`` the
    dimensionless tuning factor; both must be positive and finite
    (ConfigError).  The diagonal is exactly 1 (exp(-0) = 1) and the kernel
    is exactly symmetric.
    """
    for name, value in (("sigma2_hat", sigma2_hat), ("bandwidth factor s", s)):
        if not 0.0 < value < math.inf:  # also rejects NaN
            raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return KernelMatrix(data, -2.0 * s * sigma2_hat)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Orthonormal eigensystem of a PSD kernel matrix of rank r.

    ``eigenvalues`` holds all n eigenvalues, finite, nonnegative and
    descending, and every one past r is exactly 0; ``eigenvectors`` is
    (n, r), column i paired with ``eigenvalues[i]``.  A full-rank
    decomposition has r = n.  ``eigendecompose`` writes the eigenvectors
    over its pivoted Cholesky factor, so they come Fortran-ordered, each
    column contiguous; values do not depend on the layout.
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
    with L ~ F F^T; the rows of F^T grow by doubling, and the spare ones
    are given back at the end (``ndarray.resize`` shrinks the buffer in
    place), so F takes exactly 8 n r bytes.  Raises NumericalFailure when a
    residual diagonal entry ends below -PSD_TOL * n, which no PSD matrix
    leaves, or is NaN.
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
    g.resize((t, n), refcheck=False)  # no view of g is used past here
    return g.T


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
    15 ms at n = 1500, rank 369).  The product is written over F, _VEC_ROWS
    rows at a time, so V takes F's Fortran-ordered buffer (each eigenvector
    contiguous) and no second n x r array exists beside the factor.  R's
    conditioning enters V only through that solve, and the orthonormality
    check below bounds its effect.  The
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
    ``KernelMatrix`` is exactly symmetric by construction, so its upper
    trapezoid covers every entry.  Its blocks come from the centred
    expansion (``KernelMatrix.expanded_block``); a block whose residual
    is within the expansion's bound of RECONSTRUCTION_TOL, or above it, is
    compared again with exact entries.  So the check passes exactly when
    the residual against the exact kernel is within the tolerance, at the
    cost of one matrix product per block.
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
    solve = np.linalg.solve(r, u[:, ::-1])  # largest eigenvalue first
    vec = factor  # V = Q U = F solve, written over F one row block at a time
    for top in range(0, n, _VEC_ROWS):
        rows = slice(top, top + _VEC_ROWS)
        vec[rows] = vec[rows] @ solve
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
    # V diag(lam) V^T one row block of its upper trapezoid at a time, the
    # flops of one symmetric rank-r update; only a block's rows are scaled,
    # so no second n x r array is made
    lam_r = lam[: vec.shape[1]]
    residual = 0.0
    for top in range(0, n, _CHECK_ROWS):
        rows = slice(top, top + _CHECK_ROWS)
        block = (vec[rows] * lam_r) @ vec[top:].T
        if dense:
            lower = block - mat[top:, rows].T
            residual = np.max((residual, np.abs(lower, out=lower).max()))  # keeps NaN
        else:
            expanded, bound = mat.expanded_block(top, top + _CHECK_ROWS, top)
            expanded -= block
            if np.abs(expanded, out=expanded).max() <= RECONSTRUCTION_TOL - bound:
                residual = np.max((residual, expanded.max()))
                continue
        block -= mat[rows, top:]
        residual = np.max((residual, np.abs(block, out=block).max()))
    if not residual <= RECONSTRUCTION_TOL:
        raise NumericalFailure(
            f"spectral reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:g}"
        )
    return SpectralDecomposition(lam, vec)
