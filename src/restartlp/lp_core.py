"""Problem data, sparse linear algebra, and KKT residuals.

Everything downstream (steps, gap evaluation, restart driver) is matrix-free
apart from the ADMM and PPM steps: the only operations applied to the
constraint matrix are products with A and with A^T, plus, for those two
methods, one sparse factorization of A A^T per solve.  ``SparseMatrix``
therefore keeps one row-ordered compressed layout, built once at load, and
runs each product as one call of a scipy kernel over it: CSR for A v, CSC
for A^T w (A's row-ordered layout is A^T's column-ordered one), adding the
product into a caller-supplied output (or a fresh zero one).
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


def _rmatvec_by_operator(n_row, n_col, indptr, indices, data, w, out):
    """out += A^T w through ``csc_array @`` over A's layout, likewise."""
    out += sp.csc_array((data, indices, indptr), shape=(n_row, n_col)) @ w


try:
    # the kernels behind ``csr_array @ v`` and ``csr_array.T @ w``
    from scipy.sparse._sparsetools import csc_matvec as _csc_matvec
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - depends on the scipy build
    _csr_matvec, _csc_matvec = _matvec_by_operator, _rmatvec_by_operator

_FLOAT64 = np.dtype(np.float64)
_INT32_MAX = np.iinfo(np.int32).max

__all__ = [
    "SparseMatrix",
    "StandardFormLp",
    "SaddlePoint",
    "Residuals",
    "residuals",
    "residuals_of_gradient",
    "power_method_sigma_max",
]


class SparseMatrix:
    """Sparse matrix whose nonzeros are held once, in a row-ordered layout.

    :meth:`matvec` runs scipy's CSR kernel over it and :meth:`rmatvec` the
    CSC kernel over the same arrays, as ``csr_array @ v`` and
    ``csr_array.T @ w`` do, without their per-call wrapper cost.  Each is
    one pass in a fixed order (no parallel reductions), so the products are
    reproducible and equal ``@`` bit for bit.  Each takes an optional
    ``out``, a writeable float64 array of the result's shape, checked (the
    kernels do not check bounds), which the product is added into, each
    entry's sum starting from its value there, and which is returned;
    without ``out`` the product goes into a new zero array.

    Duplicate (row, col) pairs are rejected; callers that want accumulation
    semantics must sum before construction.  ``rows``, ``cols`` and
    ``vals`` read the nonzeros off the layout, in (row, col) order.  Its
    index arrays are int32 when the dimensions and the nonzero count fit
    in it, else int64.

    The block-diagonal matrix of several (:meth:`block_diagonal`) holds in
    each row the entries of one row of one of them, in their stored order,
    so a product with it repeats, block by block, the sums of the products
    with each bit for bit.  :meth:`scaled_products` scales by one scalar
    per product or by one value per row (A v) and per column (A^T w), which
    gives each block of such a stack a scale of its own;
    :meth:`saddle_products` runs both scaled products as one product with
    the saddle operator [[0, t A^T], [s A, 0]].

    A matrix is never modified in place: :meth:`scaled`,
    :meth:`scaled_products`, :meth:`saddle_products` and
    :meth:`block_diagonal` return new matrices, each with a memo of its
    own.  That lets it keep, in one memo (:meth:`derived`), what is
    computed from it alone and would otherwise be computed again by every
    solve and every tuning run on it:

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
    of what it holds: A~ adds one value array (8 bytes per nonzero, index
    arrays shared), and a factor the 12 bytes per nonzero of its sparse LU,
    or the 8 m^2 bytes of a dense inverse when that LU would be no smaller
    (:class:`~restartlp.steps.NormalFactor`).  A solve's step operator K
    adds 16 bytes per nonzero, and EGM's M one layout of 2 nnz nonzeros.
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
        if max(n_rows, n_cols, vals.size) <= _INT32_MAX:
            # the layout takes its index dtype from these: int32 halves the
            # index bytes each product reads, with the same arithmetic
            rows, cols = rows.astype(np.int32), cols.astype(np.int32)
        # the conversion sorts each row by column and sums repeated pairs,
        # so a repeat shows as a lost entry
        csr = sp.coo_array((vals, (rows, cols)), shape=(n_rows, n_cols)).tocsr()
        if csr.nnz != vals.size:
            raise ValueError("duplicate (row, col) entries")
        self._bind(csr, csr.data)

    def _bind(self, csr, adj_vals):
        """Hold the layout and the values the transpose product reads, and
        the kernels' leading arguments for each product; returns self.  A
        layout bound to a new object is not sorted or checked again."""
        self.n_rows, self.n_cols = csr.shape
        self._csr, self._adj_vals = csr, adj_vals
        # the shapes of a product's input and output, checked on every call
        self._row_shape, self._col_shape = (self.n_rows,), (self.n_cols,)
        self._fwd_args = (self.n_rows, self.n_cols, csr.indptr, csr.indices, csr.data)
        self._adj_args = (self.n_cols, self.n_rows, csr.indptr, csr.indices, adj_vals)
        return self

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
        return np.repeat(np.arange(self.n_rows), np.diff(self._csr.indptr))

    @property
    def cols(self):
        """Column index of each nonzero, in (row, col) order, in the
        layout's index dtype."""
        return self._csr.indices

    @property
    def vals(self):
        """Value of each nonzero, in (row, col) order."""
        return self._csr.data

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
        _csc_matvec(*self._adj_args, w, out)
        return out

    def scaled(self, row_scale, col_scale):
        """diag(row_scale) A diag(col_scale), entry by entry
        (row_scale_i a_ij) col_scale_j: one new value array, which both
        products read, over A's index arrays."""
        csr = self._csr
        vals = row_scale[self.rows]
        vals *= csr.data
        vals *= col_scale[csr.indices]
        return self._revalued(vals, vals)

    def scaled_products(self, matvec_scale, rmatvec_scale):
        """The operator pair v -> (s a_ij) v and w -> (t a_ij) w for
        s = ``matvec_scale``, t = ``rmatvec_scale``: a matrix whose
        :meth:`matvec` is s A and whose :meth:`rmatvec` is t A^T.

        Each scale is a scalar, or an array of one value per row (s_i) or
        per column (t_j) of A, giving diag(s) A and diag(t) A^T.  Each
        product gets values of its own, multiplied once, entry by entry,
        over A's index arrays, so the two are no longer transposes of one
        another.  :meth:`saddle_products` runs both as one product.
        """
        csr = self._csr
        if np.ndim(matvec_scale):
            # raises ValueError unless there is one scale per row
            matvec_scale = np.repeat(matvec_scale, np.diff(csr.indptr))
        if np.ndim(rmatvec_scale):
            if np.shape(rmatvec_scale) != self._col_shape:  # indexing would take a longer one
                raise ValueError(f"expected one scale per column, got {np.shape(rmatvec_scale)}")
            rmatvec_scale = np.asarray(rmatvec_scale)[csr.indices]
        return self._revalued(matvec_scale * csr.data, rmatvec_scale * csr.data)

    def saddle_products(self, matvec_scale, rmatvec_scale):
        """The (n + m) x (n + m) saddle operator M = [[0, t A^T], [s A, 0]]
        for s = ``matvec_scale``, t = ``rmatvec_scale`` and A of shape
        (m, n): ``M.matvec(z, out)`` adds t A^T y to out[:n] and s A x to
        out[n:] for z = [x; y], both products in one kernel call.

        The scales are those of :meth:`scaled_products`.  M's one layout
        of 2 nnz(A) nonzeros stacks the rows of t A^T, one transpose of
        t A, with indices shifted by n, on the rows of s A.  Each row holds
        an entry's terms of the lone product in the order the kernel adds
        them, so every entry of ``M.matvec`` equals, bit for bit, that of
        the ``rmatvec`` or ``matvec`` of ``scaled_products(s, t)`` into the
        same ``out``.  :meth:`rmatvec` is M^T.
        """
        scaled = self.scaled_products(matvec_scale, rmatvec_scale)
        csr = scaled._csr
        adj = sp.csr_array((scaled._adj_vals, csr.indices, csr.indptr), shape=self.shape).T.tocsr()
        n, size = self.n_cols, self.n_cols + self.n_rows
        # int32 indices, as A's, unless M's size or nonzero count needs more
        index = np.int64 if max(size, 2 * self.nnz) > _INT32_MAX else np.int32
        indptr = np.concatenate([adj.indptr, csr.indptr[1:].astype(index) + adj.indptr[-1]],
                                dtype=index)
        indices = np.concatenate([adj.indices.astype(index) + n, csr.indices], dtype=index)
        saddle = sp.csr_array((np.concatenate([adj.data, csr.data]), indices, indptr),
                              shape=(size, size))
        return object.__new__(SparseMatrix)._bind(saddle, saddle.data)

    @staticmethod
    def block_diagonal(matrices):
        """diag(A_1, ..., A_k) of the k >= 1 ``matrices``, each on rows and
        columns of its own: A_i on the rows and columns that follow those
        of A_1 .. A_{i-1} (see the class docstring)."""
        row_start = np.cumsum([0] + [A.n_rows for A in matrices])
        col_start = np.cumsum([0] + [A.n_cols for A in matrices])
        return SparseMatrix(row_start[-1], col_start[-1],
                            np.concatenate([A.rows + r for A, r in zip(matrices, row_start)]),
                            np.concatenate([A.cols + c for A, c in zip(matrices, col_start)]),
                            np.concatenate([A.vals for A in matrices]))

    def _revalued(self, vals, adj_vals):
        """A matrix with new values for each product over the same index
        arrays, shared, not copied."""
        csr = copy.copy(self._csr)
        csr.data = vals
        return object.__new__(SparseMatrix)._bind(csr, adj_vals)

    def gram(self):
        """A A^T as a sparse CSC array, the product of the layout with its
        transpose."""
        return sp.csc_array(self._csr @ self._csr.T)

    def to_dense(self):
        return self._csr.toarray()

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


def residuals(problem, z, row_scale=None, col_scale=None):
    """Residuals computed directly from the problem data (matrix-free).

    For ``nonneg=True`` the KKT error is |(h - K z)^+| for the stacked
    optimality system K z >= h of the LP (x >= 0, Ax = b, A'y <= c,
    c'x <= b'y), computed without forming K, from one product with A and
    one with A'.
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
    ax = problem.A.matvec(z.x)
    aty = problem.A.rmatvec(z.y)
    return residuals_of_gradient(problem, z.x, z.y, problem.c - aty, ax - problem.b,
                                 row_scale, col_scale)


def _norm(v):
    """The same bits as ``np.linalg.norm(v)`` for a flat contiguous float64
    array, without its dispatch, which at the sizes of small problems costs
    more than the product it measures."""
    return math.sqrt(float(v @ v))


def residuals_of_gradient(problem, x, y, g_x, g_y, row_scale=None, col_scale=None):
    """:func:`residuals` at (x, y) from its gradient blocks g_x = c - A'y
    and g_y = Ax - b, which a caller that also needs them (a restart
    checkpoint, for the gap) forms once.  With scales, ``g_x`` and ``g_y``
    are divided by them in place."""
    if row_scale is not None:
        g_y /= row_scale
        g_x /= col_scale
    primal = _norm(g_y)
    gap_raw = float(problem.c @ x - problem.b @ y)
    if problem.nonneg:
        dual = _norm(np.minimum(g_x, 0.0))
        gap = max(gap_raw, 0.0)
        neg = np.minimum(x, 0.0)
        if col_scale is not None:
            neg *= col_scale
        bound = _norm(neg)
    else:
        dual = _norm(g_x)
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
    if not np.any(A.vals):
        # no nonzero stored value: A'A v is 0 from every start
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
