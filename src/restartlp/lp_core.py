"""Problem data, sparse linear algebra, norms, and KKT residuals.

Everything downstream (steps, gap evaluation, restart driver) is matrix-free
apart from the ADMM and PPM steps: the only operations applied to the
constraint matrix are products with A and with A^T, plus, for those two
methods, one sparse factorization of A A^T per solve.  ``SparseMatrix``
therefore keeps two compressed layouts of the same nonzeros, one row-ordered
and one column-ordered, built once at load, and runs each product as one
call of scipy's CSR kernel, which adds the product into a caller-supplied
output (or a fresh zero one).
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


def _matvec_by_operator(n_row, n_col, indptr, indices, data, v, out):
    """out += A v through ``csr_array @``: the public route to the same
    kernel, for a scipy whose private kernel module cannot be imported."""
    out += sp.csr_array((data, indices, indptr), shape=(n_row, n_col)) @ v


try:
    # out += A v over a CSR layout; the kernel behind ``csr_array @ v``
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - depends on the scipy build
    _csr_matvec = _matvec_by_operator

_FLOAT64 = np.dtype(np.float64)
_INT32_MAX = np.iinfo(np.int32).max

__all__ = [
    "SparseMatrix",
    "StandardFormLp",
    "SaddlePoint",
    "NormSpec",
    "Residuals",
    "gradient_field",
    "norm_value",
    "residuals",
    "residuals_of_gradient",
    "power_method_sigma_max",
]


class SparseMatrix:
    """Sparse matrix with both row- and column-ordered compressed layouts.

    Products with A run over the row-ordered layout, products with A^T over
    the column-ordered one, so each is a single contiguous pass and the
    summation order is fixed (no parallel reductions): results are
    reproducible bit for bit across runs.  :meth:`matvec` and
    :meth:`rmatvec` call scipy's CSR kernel on the stored layout directly,
    which is the kernel ``csr_array @ v`` runs, so the products equal
    ``@`` bit for bit without its per-call wrapper cost.  Each takes an
    optional ``out``: a float64, writeable array of the result's shape,
    checked (the kernel itself does not check bounds), which the product is
    added into and which is returned: ``A.matvec(v, out)`` leaves
    ``out + A v`` in ``out``, each row's sum starting from ``out[i]``, as
    the kernel computes it.  Without ``out`` the product goes into a new
    zero array, so ``A.matvec(v)`` equals ``A @ v``.

    Duplicate (row, col) pairs are rejected; callers that want accumulation
    semantics must sum before construction.  The nonzeros are held once per
    layout: ``rows``, ``cols`` and ``vals`` read them off the row-ordered
    one, in (row, col) order.  The layouts' index arrays are int32 when the
    dimensions and the nonzero count fit in it, else int64.

    A matrix is never modified in place: :meth:`scaled` and
    :meth:`scaled_products` return new matrices, each with a memo of its
    own.  That lets it keep, in one memo (:meth:`derived`), what is computed
    from it alone and would otherwise be computed again by every solve and
    every tuning run on it:

    * the converged estimates of :func:`power_method_sigma_max`, one per
      ``(tol, max_iters, seed)``;
    * the rescaling (A~, d1, d2) of :func:`~restartlp.scaling.rescale`, so
      that every solve of A steps on one A~ and its own memo: sigma_max(A~)
      is estimated once per matrix too;
    * the factors of s I + A A' (:meth:`~restartlp.steps.NormalFactor.of`),
      one per shift s: 0 for the ADMM projection, 1/eta^2 for PPM.

    The memo is created by its first entry (construction does no extra
    work) and lives as long as the matrix; nothing in it refers back to the
    matrix, so reference counting frees both together.  Its memory is that
    of what it holds: A~ adds one value array per layout (16 bytes per
    nonzero, index arrays shared), and a factor the fill-in of its sparse LU.
    """

    def __init__(self, n_rows, n_cols, rows, cols, vals):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise ValueError("rows, cols, vals must be 1-d arrays of equal length")
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        if max(self.n_rows, self.n_cols, vals.size) <= _INT32_MAX:
            # the layouts take their index dtype from these: int32 halves
            # the index bytes each product reads, with the same arithmetic
            rows, cols = rows.astype(np.int32), cols.astype(np.int32)
        # row-ordered layout, used for A @ v; the conversion sorts each row
        # by column and sums repeated pairs, so a repeat shows as a lost entry
        fwd = sp.coo_array((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
        if fwd.nnz != vals.size:
            raise ValueError("duplicate (row, col) entries")
        self._bind(fwd, fwd.T.tocsr())  # column-ordered layout, used for A^T @ w

    def _bind(self, fwd, adj):
        """Hold the two layouts, and the kernel's leading arguments for the
        product over each."""
        self._fwd, self._adj = fwd, adj
        # the shapes of a product's input and output, checked on every call
        self._row_shape, self._col_shape = (self.n_rows,), (self.n_cols,)
        self._fwd_args = (self.n_rows, self.n_cols, fwd.indptr, fwd.indices, fwd.data)
        self._adj_args = (self.n_cols, self.n_rows, adj.indptr, adj.indices, adj.data)

    @property
    def memo(self):
        """The dict of data derived from this matrix alone (see the class
        docstring), created on first use."""
        try:
            return self._memo
        except AttributeError:
            self._memo = {}
            return self._memo

    def derived(self, key, build):
        """``memo[key]``, computed by ``build()`` on first use."""
        memo = self.memo
        if key not in memo:
            memo[key] = build()
        return memo[key]

    @classmethod
    def from_dense(cls, dense):
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("expected a 2-d array")
        rows, cols = np.nonzero(dense)
        return cls(dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols])

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return self.vals.size

    @property
    def rows(self):
        """Row index of each nonzero, in (row, col) order."""
        return np.repeat(np.arange(self.n_rows), np.diff(self._fwd.indptr))

    @property
    def cols(self):
        """Column index of each nonzero, in (row, col) order, in the
        layout's index dtype."""
        return self._fwd.indices

    @property
    def vals(self):
        """Value of each nonzero, in (row, col) order."""
        return self._fwd.data

    def matvec(self, v, out=None):
        """A @ v with deterministic row-major summation, added into ``out``
        if given."""
        v = np.asarray(v, dtype=_FLOAT64)
        if v.shape != self._col_shape:
            raise ValueError(f"matvec dimension mismatch: {v.shape} vs {self.shape}")
        if out is None:
            out = np.zeros(self.n_rows)
        elif not (isinstance(out, np.ndarray) and out.shape == self._row_shape
                  and (out.dtype is _FLOAT64 or out.dtype == _FLOAT64)
                  and out.flags.writeable):
            # the kernel does not check bounds
            raise ValueError(f"out must be a writeable float64 array of shape ({self.n_rows},)")
        _csr_matvec(*self._fwd_args, v, out)
        return out

    def rmatvec(self, w, out=None):
        """A^T @ w with deterministic column-major summation, added into
        ``out`` if given."""
        w = np.asarray(w, dtype=_FLOAT64)
        if w.shape != self._row_shape:
            raise ValueError(f"rmatvec dimension mismatch: {w.shape} vs {self.shape}")
        if out is None:
            out = np.zeros(self.n_cols)
        elif not (isinstance(out, np.ndarray) and out.shape == self._col_shape
                  and (out.dtype is _FLOAT64 or out.dtype == _FLOAT64)
                  and out.flags.writeable):
            # the kernel does not check bounds
            raise ValueError(f"out must be a writeable float64 array of shape ({self.n_cols},)")
        _csr_matvec(*self._adj_args, w, out)
        return out

    def scaled(self, row_scale, col_scale):
        """diag(row_scale) A diag(col_scale), entry by entry
        (row_scale_i a_ij) col_scale_j in every layout.

        The result shares the index arrays of both compressed layouts; only
        the values are new (one array per ordering), and the pattern is not
        re-sorted or re-checked.
        """
        fwd, adj = self._fwd, self._adj
        adj_cols = np.repeat(np.arange(self.n_cols), np.diff(adj.indptr))
        return self._revalued(row_scale[self.rows] * fwd.data * col_scale[fwd.indices],
                              row_scale[adj.indices] * adj.data * col_scale[adj_cols])

    def scaled_products(self, matvec_scale, rmatvec_scale):
        """The operator pair v -> (s a_ij) v and w -> (t a_ij) w for
        s = ``matvec_scale``, t = ``rmatvec_scale``: a matrix whose
        :meth:`matvec` is s A and whose :meth:`rmatvec` is t A^T.

        Each layout's values are multiplied once by its own scalar (one new
        value array per layout); the index arrays are shared.  Only the two
        products are meant to be used: the layouts no longer hold the
        transpose of one another.
        """
        return self._revalued(matvec_scale * self._fwd.data, rmatvec_scale * self._adj.data)

    def _revalued(self, fwd_vals, adj_vals):
        """A matrix over the same two layouts with new values in each: the
        index arrays are shared, not copied, sorted or checked again."""
        out = object.__new__(SparseMatrix)
        out.n_rows, out.n_cols = self.n_rows, self.n_cols
        fwd, adj = copy.copy(self._fwd), copy.copy(self._adj)
        fwd.data, adj.data = fwd_vals, adj_vals
        out._bind(fwd, adj)
        return out

    def gram(self):
        """A A^T as a sparse CSC array, the product of the two layouts."""
        return sp.csc_array(self._fwd @ self._adj)

    def to_dense(self):
        return self._fwd.toarray()

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def is_buffer(out, size):
    """Whether ``out`` can receive a length-``size`` float64 result in
    place: a writeable float64 ndarray of shape (size,)."""
    return (isinstance(out, np.ndarray) and out.shape == (size,)
            and out.dtype == _FLOAT64 and out.flags.writeable)


@dataclass(frozen=True)
class StandardFormLp:
    """LP data in standard form: min c'x subject to Ax = b, x >= 0.

    The associated saddle-point problem is min_x max_y L(x, y) with
    L(x, y) = c'x + b'y - y'Ax.  With ``nonneg=False`` the nonnegativity
    constraint is dropped and the problem is a pure unconstrained bilinear
    saddle (used by the diagonal test instances, where Z* may be a single
    point).
    """

    c: np.ndarray
    A: SparseMatrix
    b: np.ndarray
    nonneg: bool = True

    def __post_init__(self):
        object.__setattr__(self, "c", np.ascontiguousarray(self.c, dtype=np.float64))
        object.__setattr__(self, "b", np.ascontiguousarray(self.b, dtype=np.float64))
        if self.c.shape != (self.A.n_cols,):
            raise ValueError("objective length does not match matrix columns")
        if self.b.shape != (self.A.n_rows,):
            raise ValueError("rhs length does not match matrix rows")

    @property
    def n(self):
        return self.A.n_cols

    @property
    def m(self):
        return self.A.n_rows


@dataclass
class SaddlePoint:
    """Primal-dual pair z = (x, y)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=_FLOAT64)
        self.y = np.asarray(self.y, dtype=_FLOAT64)

    def as_vector(self):
        return np.concatenate([self.x, self.y])

    @classmethod
    def from_vector(cls, v, n):
        v = np.asarray(v, dtype=np.float64)
        return cls(v[:n].copy(), v[n:].copy())

    @classmethod
    def zeros(cls, problem):
        return cls(np.zeros(problem.n), np.zeros(problem.m))

    def copy(self):
        return SaddlePoint(self.x.copy(), self.y.copy())


def _check_dims(problem, z):
    if z.x.shape != (problem.n,) or z.y.shape != (problem.m,):
        raise ValueError("saddle point dimensions do not match problem")


def gradient_field(problem, z, ax=None, aty=None):
    """F(z) = (grad_x L, -grad_y L) = (c - A'y, Ax - b), stacked.

    ``ax`` / ``aty`` let callers reuse already-computed products.
    """
    _check_dims(problem, z)
    if aty is None:
        aty = problem.A.rmatvec(z.y)
    if ax is None:
        ax = problem.A.matvec(z.x)
    return np.concatenate([problem.c - aty, ax - problem.b])


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------

EUCLIDEAN = "euclidean"
PDHG_M = "pdhg_m"
ADMM_M = "admm_m"


@dataclass(frozen=True)
class NormSpec:
    """Which (semi-)norm to measure saddle points in.

    * ``euclidean`` -- plain l2 on the stacked (x, y).
    * ``pdhg_m``    -- sqrt(w|x|^2 + 2 eta y'Ax + |y|^2/w) after the
      primal-weight rescaling x <- x sqrt(w), y <- y / sqrt(w).  This is the
      quadratic form of M = [[I, -eta K'], [-eta K, I]] for the coupling
      matrix K of the update; under the data convention L = c'x + b'y - y'Ax
      the coupling is K = -A, hence the positive cross term.  Positive
      definite iff eta * sigma_max(A) < 1.
    * ``admm_m``    -- sqrt(eta |x_V|^2 + |y|^2 / eta) on (x_U, x_V, y)
      triples; x_U carries zero weight (a semi-norm).
    """

    kind: str
    eta: float = 0.0
    omega: float = 1.0

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, PDHG_M, ADMM_M):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind in (PDHG_M, ADMM_M) and not self.eta > 0:
            raise ValueError("eta must be positive for matrix norms")
        if not self.omega > 0:
            raise ValueError("omega must be positive")

    @staticmethod
    def euclidean():
        return NormSpec(EUCLIDEAN)

    @staticmethod
    def pdhg(eta, omega=1.0):
        return NormSpec(PDHG_M, eta=eta, omega=omega)

    @staticmethod
    def admm(eta):
        return NormSpec(ADMM_M, eta=eta)


def norm_value(spec, problem, z):
    """Norm of a point under ``spec``.

    ``z`` is a SaddlePoint for euclidean / pdhg_m, or any object with
    ``x_v`` and ``y`` attributes (an ADMM point) for admm_m.
    """
    if spec.kind == EUCLIDEAN:
        return float(math.hypot(np.linalg.norm(z.x), np.linalg.norm(z.y)))
    if spec.kind == PDHG_M:
        _check_dims(problem, z)
        w = spec.omega
        cross = z.y @ problem.A.matvec(z.x)
        sq = w * (z.x @ z.x) + 2.0 * spec.eta * cross + (z.y @ z.y) / w
        return float(math.sqrt(max(sq, 0.0)))
    if spec.kind == ADMM_M:
        sq = spec.eta * (z.x_v @ z.x_v) + (z.y @ z.y) / spec.eta
        return float(math.sqrt(max(sq, 0.0)))
    raise ValueError(f"unknown norm kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# KKT residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Residuals:
    """Primal/dual/gap residuals and the combined KKT error.

    For feasible x >= 0 the identity
    kkt_error^2 = primal^2 + dual^2 + gap^2 holds; for general x the KKT
    error additionally counts the violated nonnegativity entries.
    """

    primal_residual: float
    dual_residual: float
    gap_residual: float
    kkt_error: float


def residuals(problem, z, ax=None, aty=None, row_scale=None, col_scale=None):
    """Residuals computed directly from the problem data (matrix-free).

    For ``nonneg=True`` the KKT error is |(h - K z)^+| for the stacked
    optimality system K z >= h of the LP (x >= 0, Ax = b, A'y <= c,
    c'x <= b'y), computed without forming K and reusing cached Ax / A'y
    when available.
    For ``nonneg=False`` problems the dual residual is the full |c - A'y|
    and the gap term is |c'x - b'y|, so the error vanishes exactly at
    saddle points of the unconstrained bilinear problem.

    With ``row_scale`` = d1 and ``col_scale`` = d2, ``problem`` is the
    rescaled D1 A D2, D1 b, D2 c of an original problem and ``z`` a point
    of it; the residuals are those of the original problem at
    (D2 x, D1 y), from the same products: |(A~x - b~)/d1|,
    |min((c~ - A~'y)/d2, 0)|, c~'x - b~'y and |d2 min(x, 0)|.
    The formula is :func:`residuals_of_gradient`'s.
    """
    _check_dims(problem, z)
    if ax is None:
        ax = problem.A.matvec(z.x)
    if aty is None:
        aty = problem.A.rmatvec(z.y)
    return residuals_of_gradient(problem, z.x, z.y, problem.c - aty, ax - problem.b,
                                 row_scale, col_scale)


def residuals_of_gradient(problem, x, y, g_x, g_y, row_scale=None, col_scale=None):
    """:func:`residuals` at (x, y) from its gradient blocks g_x = c - A'y
    and g_y = Ax - b, which a caller that also needs them (a restart
    checkpoint, for the gap) forms once.  With scales, ``g_x`` and ``g_y``
    are divided by them in place."""
    if row_scale is not None:
        g_y /= row_scale
        g_x /= col_scale
    primal = float(np.linalg.norm(g_y))
    gap_raw = float(problem.c @ x - problem.b @ y)
    if problem.nonneg:
        dual = float(np.linalg.norm(np.minimum(g_x, 0.0)))
        gap = max(gap_raw, 0.0)
        neg = np.minimum(x, 0.0)
        if col_scale is not None:
            neg *= col_scale
        bound = float(np.linalg.norm(neg))
    else:
        dual = float(np.linalg.norm(g_x))
        gap = abs(gap_raw)
        bound = 0.0
    kkt = math.sqrt(bound * bound + primal * primal + dual * dual + gap * gap)
    return Residuals(primal, dual, gap, kkt)


# ---------------------------------------------------------------------------
# Spectral norm estimation
# ---------------------------------------------------------------------------


def power_method_sigma_max(A, tol=1e-4, max_iters=5000, seed=0):
    """Estimate sigma_max(A) by power iteration on A'A.

    Deterministic given ``seed``.  Stops when the relative change of the
    Rayleigh-quotient estimate falls below ``tol``; warns (and returns the
    best estimate) if that does not happen within ``max_iters``.

    A converged estimate is kept in ``A``'s memo (see
    :class:`SparseMatrix`), keyed by ``(tol, max_iters, seed)``: a later
    call with the same arguments returns it without a product.  An estimate
    that warned is not kept, so its call warns again.
    """
    if A.nnz == 0:
        raise ValueError("power method undefined for an all-zero matrix")
    key = ("sigma_max", tol, max_iters, seed)
    memo = A.memo
    if key in memo:
        return memo[key]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n_cols)
    v /= np.linalg.norm(v)
    lam = 0.0
    prev = None
    for _ in range(max_iters):
        w = A.rmatvec(A.matvec(v))
        nw = np.linalg.norm(w)
        if nw == 0.0:
            # started in the null space; redraw deterministically
            v = rng.standard_normal(A.n_cols)
            v /= np.linalg.norm(v)
            prev = None
            continue
        lam = float(v @ w) / float(v @ v)
        v = w / nw
        if prev is not None and abs(lam - prev) <= tol * max(abs(lam), 1e-300):
            sigma = memo[key] = math.sqrt(max(lam, 0.0))
            return sigma
        prev = lam
    warnings.warn(
        f"power iteration did not converge to rel tol {tol} in {max_iters} "
        "iterations; returning best estimate",
        RuntimeWarning,
    )
    return math.sqrt(max(lam, 0.0))
