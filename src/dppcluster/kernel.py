"""Gaussian similarity kernel: bandwidth estimation, the matrix-free
kernel matrix, spectral decomposition.

The kernel is the one similarity structure shared by the generator sampler,
the consensus machinery and the validation indices, defined once per
dataset by the data and the bandwidth and immutable afterwards, so any
number of concurrent workers can read it.  No n x n array backs it:
``KernelMatrix`` keeps the (n, p) data and computes the entries a caller
asks for.

Entries come two ways; the bandwidth reads neither (one pass over the
centred data gives it).  Exact entries come from one accessor,
``KernelMatrix.block(rows, cols)``, which adds the squared feature
differences in feature order, as scipy's ``pdist`` does, so each is
bit-equal to exp(d2 / scale) over ``pairwise_sq_dists``; the pivoted
factor's rows, the likelihood's subset blocks and the dense ``entries``
read these.  Expanded entries take d2 = |x|^2 + |y|^2 - 2 x.y of the
centred data from one matrix product per block, a tenth of the cost,
within a rounding bound that grows with p (``expansion_error``); they
serve the one pass over the whole kernel, the scatter statistics of the
validation indices.

The Gaussian kernel of clustered data has low numerical rank, so its
eigensystem comes from a pivoted Cholesky factor L ~ F F^T (Harbrecht,
Peters & Schneider 2012), one kernel row per pivot until tr(L - F F^T),
which bounds the DPP's error in total variation, is at most TRACE_TOL,
then from F's column-scaled Gram matrix, with no QR (``eigendecompose``).
That, the subset likelihoods and Voronoi assignment take a ``KernelMatrix``
and no dense matrix.  Everything here is numpy, with no LAPACK ``dpstrf``
and no n x n work copy, so scipy stays off the clustering path.
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

# Largest entry |F F^T - V diag(lambda) V^T| the eigen step may leave.
RECONSTRUCTION_TOL = 1e-6

# The pivoted Cholesky factor stops once the residual trace tr(L - F F^T),
# a bound on the DPP's error in total variation, is at most this.
TRACE_TOL = 1e-3

# Row 1-norm of W = F_2 F_1^-1 that ``eigendecompose`` allows; 28 the most measured.
_GROWTH = 64.0

# Rows per block of V = F S, written over the factor F: a multiple
# of 12 and of 64, so OpenBLAS's Haswell kernel (12-row tiles) rounds every
# entry as one product over all rows does (checked at n = 150 to 3000).
_VEC_ROWS = 192

# Rows by which the factor's buffer grows; ``ndarray.resize`` zero-fills
# the added rows, so at most this many are filled and never used.
_GROW_ROWS = 64

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


def _feature_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The squared distances between the columns of the feature-major
    ``a`` (p, m) and ``b`` (p, w), as a new (m, w) array.

    The squared differences are added feature by feature in feature order,
    the summation of scipy's ``pdist`` and ``cdist``, so every entry is
    bit-equal to theirs.  Runs over chunks of rows of about _CHUNK
    differences, at least one row each.  Overflow to infinity is left quiet.
    """
    (p, m), w = a.shape, b.shape[1]
    out = np.empty((m, w))
    step = max(1, _CHUNK // (p * max(w, 1)))
    diff = np.empty((p, min(step, m), w))
    with np.errstate(over="ignore"):
        for top in range(0, m, step):
            acc = out[top : top + step]
            part = diff[:, : acc.shape[0]]
            np.subtract(a[:, top : top + step, None], b[:, None, :], out=part)
            _add_squares(part, acc)
    return out


def sq_dists_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of ``a`` (m, p) and of
    ``b`` (w, p), as a new (m, w) array, bit-equal to scipy's ``cdist``."""
    return _feature_sq_dists(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T))


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


@dataclass(frozen=True)
class KernelMatrix:
    """The Gaussian kernel exp(d2 / scale) of the rows of ``data``, d2 their
    squared Euclidean distances, held as the (n, p) data.

    ``scale`` is -2 s sigma2_hat, finite and negative, so the kernel is
    exactly symmetric with unit diagonal and entries in [0, 1].  The data
    must be finite (``as_data_matrix``) and is kept read-only: a read-only
    float64 array is shared, anything else is copied.

    ``block(rows, cols)`` returns the exact entries at rows x cols as a
    new 2-d array computed from the data; it costs its own size plus a
    chunk of per-feature differences, and every entry is bit-equal to
    exp(pairwise_sq_dists(data) / scale) at the same place.  ``entries``
    (and ``np.asarray``) materialise the dense n x n kernel through it,
    read-only, anew on every access.  ``expanded_block`` gives row blocks
    from the centred expansion instead, for passes over the whole kernel;
    its centred rows (``expansion``) also serve ``voronoi_assign``.
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

    def block(self, rows, cols=slice(None)) -> np.ndarray:
        """The exact entries at ``rows`` x ``cols`` as a new 2-d array.

        Each of ``rows`` and ``cols`` is a 1-d index array or a slice, with
        numpy's meaning, so ``block(idx, idx)`` is ``K[np.ix_(idx, idx)]``
        and ``block(slice(i, i + 1))`` row i, all columns."""
        out = _feature_sq_dists(self._features[:, rows], self._features[:, cols])
        np.divide(out, self.scale, out=out)
        return np.exp(out, out=out)

    def expanded_block(self, top: int, stop: int) -> np.ndarray:
        """Rows [top, stop) of the kernel from the centred expansion, one
        matrix product for d2' / scale.  Where d2' is within its rounding
        bound E = expansion_error(p) reach^2 of 0 (reach = max |xc| over the
        rows plus over all rows), the exact d2 may be 0, and the entry is 1,
        as on the diagonal.  Every entry is within 2 E / |scale| +
        expansion_error(p) of the exact one, exp's slope being at most 1."""
        left, right, sq = self.expansion
        block = left[top:stop] @ right.T
        reach = math.sqrt(sq[top:stop].max(initial=0.0)) + math.sqrt(sq.max())
        near_zero = expansion_error(self.data.shape[1]) * reach * reach / -self.scale
        np.copyto(block, 0.0, where=block > -near_zero)
        np.exp(block, out=block)
        np.fill_diagonal(block[:, top:], 1.0)
        return block

    @property
    def entries(self) -> np.ndarray:
        e = self.block(slice(None))
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
    """Orthonormal eigensystem of a PSD matrix of rank r, such as a kernel's F F^T.

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


def _pivoted_cholesky(row, diagonal) -> np.ndarray:
    """Pivoted Cholesky factor of an n x n PSD matrix, stopped once the
    loop's tally of the residual trace is at most TRACE_TOL.

    ``row(i)`` returns row i of the matrix and ``diagonal`` is its
    diagonal, n entries; each step reads one row, so the matrix is never
    materialised and no n x n work array is made.
    Step t takes the largest residual diagonal entry d_i (the first, on
    ties) and computes column t of the factor as (L[i] - sum over s < t of
    G[s, i] G[s]) / sqrt(d_i), set to exactly 0 on the earlier pivots and
    to sqrt(d_i) on i, the entries a factor triangular in pivot order
    holds; its squares then lower the residual diagonal.

    Returns the (n, r) factor F, rows in natural order and Fortran-ordered,
    with L ~ F F^T; the rows of F^T grow _GROW_ROWS at a time, and the
    spare ones are given back at the end (``ndarray.resize`` shrinks the
    buffer in place), so F takes exactly 8 n r bytes, and at most
    8 n (r + _GROW_ROWS) while it grows.  Raises NumericalFailure when a
    residual diagonal entry ends below -PSD_TOL * n, which no PSD matrix
    leaves, or is NaN.
    """
    residual = np.array(diagonal, dtype=float)
    n = residual.size
    square = np.empty(n)
    g = np.empty((min(n, _GROW_ROWS), n))  # row t: column t of the factor
    pivots = np.empty(n, dtype=np.intp)
    t = 0
    while t < n and residual.sum() > TRACE_TOL:  # also stops on NaN
        i = int(residual.argmax())
        if t == g.shape[0]:  # grows the buffer, keeping rows [0, t)
            g.resize((min(n, t + _GROW_ROWS), n), refcheck=False)
        col = g[t]
        np.dot(g[:t, i], g[:t], out=col)
        np.subtract(row(i), col, out=col)
        root = math.sqrt(residual[i])
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
    """Symmetric eigendecomposition of a Gaussian kernel, exact for its
    pivoted Cholesky approximation F F^T.

    ``L`` is a ``KernelMatrix``, read one row at a time; anything else
    raises ConfigError.  The (n, r) factor F (``_pivoted_cholesky``) leaves
    E = L - F F^T with trace at most TRACE_TOL.  With D the norms of F's
    columns and D^-1 F^T F D^-1 = U Sigma^2 U^T, F = Q R for the orthonormal
    Q = F D^-1 U Sigma^-1 and R = Sigma U^T D; R R^T = M = Z Lam Z^T then
    gives V = Q Z = F S, S = D^-1 U Sigma^-1 Z (Kulesza & Taskar 2012, sec.
    3.3), written over F _VEC_ROWS rows at a time; no QR runs.  Besides F
    (8 n r bytes), at most four r x r arrays are alive at a time, as each
    is deleted once dead.  Scaled, F's
    columns have cond 200 at n = 5000, so the Gram path's u cond^2 loss of
    orthonormality, u the unit roundoff, is 2e-13 there (6.5e-8 unscaled).
    Eigenvalues in [-PSD_TOL * n, 0) are clamped to zero; lower ones, a
    failed solver, a singular scaled Gram matrix, max |V^T V - I| > 1e-8
    or a failed check raise NumericalFailure.  Both checks read F alone,
    in O(n r + r^3), to first order in u, with g = (r + 3) u and d = 1 -
    rowsum(F o F) as returned:

    (a) tr E, which bounds the total variation between the DPPs of L and
    F F^T by 1 - exp(-tr E) <= tr E for PSD E (Affandi, Kulesza, Fox &
    Taskar 2013): TRACE_TOL per draw at every n, 2 TRACE_TOL / P(|Y| >= 2)
    given |Y| >= 2, and R times that for an ensemble's R draws.  E is d on
    its diagonal and the factor's backward error on the pivot rows, each
    within g (Higham 2002, ch. 10); off the pivots it is the Schur
    complement of F_1 F_1^T in A = L - E_P, E_P its pivot rows and
    columns, so for y on two such rows y^T E y = z^T A z >= -c |z|_1^2 >=
    -tau |y|^2, z = (y, -W^T y), W = F_2 F_1^-1 of largest row 1-norm
    omega <= _GROWTH, c = (p + 6) u + g bounding A less the exact PSD
    kernel, tau = 2 c (1 + omega)^2.  The check: min d >= -(g + tau) and
    sum d <= TRACE_TOL + 2 n g.

    (b) The eigen step.  R S = Z, so F S Lam S^T F^T - F F^T = Q G Q^T for
    G = Z Lam Z^T - M, each entry at most |G|_F times two row norms of Q,
    within r 1e-8 of 1 as V's.  Rounding adds rho: 2 (g + 4 u) tr Lam in
    G; 2 max(lambda) kappa (2 g + 3 u), kappa = cond(Sigma), as U's
    departure from orthogonality and S's rounding move R S from Z; and
    g (1 + sqrt(sigma))^2 in V = F S, sigma = |S Lam^1/2|_F^2 (about r).
    The check: |G|_F + rho <= RECONSTRUCTION_TOL (rho 1.4e-7 at n = 5000).

    Results moved with the stop rule: max |L - V Lam V^T| is up to max d,
    2.5e-6 at n = 1500 and 2.7e-5 on iris; the sampler's bound is in TV.
    """
    if not isinstance(L, KernelMatrix):
        raise ConfigError(f"eigendecompose takes a KernelMatrix, got {type(L).__name__}")
    n = L.n
    # row by row, on the kernel's exact unit diagonal
    factor = _pivoted_cholesky(lambda i: L.block(slice(i, i + 1))[0], np.ones(n))
    r = factor.shape[1]
    # d = diag(L - F F^T), read before V is written over F
    gap = 1.0 - np.einsum("ij,ij->i", factor, factor)
    gram = factor.T @ factor
    norm = np.sqrt(gram.diagonal())  # D
    gram /= np.multiply.outer(norm, norm)
    try:
        sq, u = np.linalg.eigh(gram)  # Sigma^2 and U, ascending
        del gram
        if not sq[0] > 0.0:
            raise NumericalFailure(f"scaled Gram matrix is singular: eigenvalue {sq[0]:.3e}")
        sv = np.sqrt(sq)
        dus = u * sv  # D U Sigma
        dus *= norm[:, None]
        m = dus.T @ dus
        del dus
        vals, z = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver did not converge: {exc}") from exc
    if vals[0] < -PSD_TOL * n:
        raise NumericalFailure(f"matrix is not PSD within tolerance: eigenvalue {vals[0]:.3e}")
    z = z[:, ::-1]  # largest eigenvalue first
    lam = np.zeros(n)
    lam[:r] = np.clip(vals[::-1], 0.0, None)
    u /= np.multiply.outer(norm, sv)  # D^-1 U Sigma^-1
    solve = u @ z
    del u
    vec = factor  # V = F S, written over F one row block at a time
    for top in range(0, n, _VEC_ROWS):
        rows = slice(top, top + _VEC_ROWS)
        vec[rows] = vec[rows] @ solve
    sigma = float(np.einsum("ij,ij,j->", solve, solve, lam[:r]))  # |S Lam^1/2|_F^2
    del solve
    gram = vec.T @ vec
    np.fill_diagonal(gram, gram.diagonal() - 1.0)
    if not np.abs(gram, out=gram).max() <= 1e-8:  # a NaN fails too
        raise NumericalFailure("eigenvectors lost orthonormality")
    del gram
    unit = np.finfo(float).eps / 2
    gamma = (r + 3) * unit
    tau = 2 * ((L.data.shape[1] + 6) * unit + gamma) * (1.0 + _GROWTH) ** 2
    if not (gap.min() >= -(gamma + tau) and gap.sum() <= TRACE_TOL + 2 * n * gamma):
        raise NumericalFailure(f"residual diagonal min {gap.min():.3e}, sum {gap.sum():.3e}")
    residual = _eigen_step_bound(z, lam[:r], m, sigma, sv[-1] / sv[0], gamma)
    if not residual <= RECONSTRUCTION_TOL:  # also fails on NaN
        raise NumericalFailure(
            f"spectral reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:g}"
        )
    return SpectralDecomposition(lam, vec)


def _eigen_step_bound(z, lam, m, sigma: float, kappa: float, gamma: float) -> float:
    """|G|_F + rho, the bound of ``eigendecompose``'s check (b)."""
    unit = np.finfo(float).eps / 2
    g = (z * lam) @ z.T
    g -= m
    rho = gamma * (1.0 + math.sqrt(sigma)) ** 2 + 2 * (gamma + 4 * unit) * float(lam.sum())
    rho += 2 * float(lam[0]) * kappa * (2 * gamma + 3 * unit)
    return (1.0 + lam.size * 1e-8) * float(np.linalg.norm(g)) + rho
