"""Problem data, sparse linear algebra, norms, and KKT residuals.

Everything downstream (steps, gap evaluation, restart driver) is matrix-free
apart from the ADMM and PPM steps: the only operations applied to the
constraint matrix are products with A and with A^T, plus, for those two
methods, one sparse factorization of A A^T per solve.  ``SparseMatrix``
therefore keeps two compressed layouts of the same nonzeros, one row-ordered
and one column-ordered, built once at load.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseMatrix",
    "StandardFormLp",
    "SaddlePoint",
    "NormSpec",
    "Residuals",
    "gradient_field",
    "lagrangian",
    "norm_value",
    "norm_distance",
    "residuals",
    "power_method_sigma_max",
]


class SparseMatrix:
    """Sparse matrix with both row- and column-ordered compressed layouts.

    Products with A run over the row-ordered layout, products with A^T over
    the column-ordered one, so each is a single contiguous pass and the
    summation order is fixed (no parallel reductions): results are
    reproducible bit for bit across runs.

    Duplicate (row, col) pairs are rejected; callers that want accumulation
    semantics must sum before construction.
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
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        # sorted by (row, col), a repeated pair sits next to its twin
        if ((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])).any():
            raise ValueError("duplicate (row, col) entries")
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.rows = rows
        self.cols = cols
        self.vals = vals[order]
        coo = sp.coo_array((self.vals, (self.rows, self.cols)), shape=(n_rows, n_cols))
        self._fwd = coo.tocsr()          # row-ordered layout, used for A @ v
        self._adj = coo.T.tocsr()        # column-ordered layout, used for A^T @ w

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

    def matvec(self, v):
        """A @ v with deterministic row-major summation."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_cols,):
            raise ValueError(f"matvec dimension mismatch: {v.shape} vs {self.shape}")
        return self._fwd @ v

    def rmatvec(self, w):
        """A^T @ w with deterministic column-major summation."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != (self.n_rows,):
            raise ValueError(f"rmatvec dimension mismatch: {w.shape} vs {self.shape}")
        return self._adj @ w

    def scaled(self, row_scale, col_scale):
        """diag(row_scale) A diag(col_scale), entry by entry
        (row_scale_i a_ij) col_scale_j in every layout.

        The result shares this matrix's sorted ``rows``/``cols`` and the index
        arrays of both compressed layouts; only the values are new (one array
        per ordering), and the pattern is not re-sorted or re-checked.
        """
        out = object.__new__(SparseMatrix)
        out.n_rows, out.n_cols = self.n_rows, self.n_cols
        out.rows, out.cols = self.rows, self.cols
        out.vals = row_scale[self.rows] * self.vals * col_scale[self.cols]
        # the row-ordered layout holds the nonzeros in the sorted (row, col)
        # order of rows/cols, so it takes the new values as they are
        fwd, adj = self._fwd, self._adj
        out._fwd = sp.csr_array((out.vals, fwd.indices, fwd.indptr), shape=fwd.shape)
        adj_cols = np.repeat(np.arange(self.n_cols), np.diff(adj.indptr))
        out._adj = sp.csr_array(
            (row_scale[adj.indices] * adj.data * col_scale[adj_cols], adj.indices, adj.indptr),
            shape=adj.shape)
        return out

    def gram(self):
        """A A^T as a sparse CSC array, the product of the two layouts."""
        return sp.csc_array(self._fwd @ self._adj)

    def to_dense(self):
        return self._fwd.toarray()

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


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
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)

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


def lagrangian(problem, z):
    """Value of L(x, y) = c'x + b'y - y'Ax."""
    _check_dims(problem, z)
    return float(problem.c @ z.x + problem.b @ z.y - z.y @ problem.A.matvec(z.x))


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
    ``x_v`` and ``y`` attributes (an ADMM state or point) for admm_m.
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


def norm_distance(spec, problem, z1, z2):
    """Distance between two points under ``spec``."""
    if spec.kind == ADMM_M:
        return norm_value(spec, problem, SimpleNamespace(x_v=z1.x_v - z2.x_v, y=z1.y - z2.y))
    return norm_value(spec, problem, SaddlePoint(z1.x - z2.x, z1.y - z2.y))


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
    """
    _check_dims(problem, z)
    if ax is None:
        ax = problem.A.matvec(z.x)
    if aty is None:
        aty = problem.A.rmatvec(z.y)
    r = ax - problem.b
    d = problem.c - aty
    x = z.x
    if row_scale is not None:
        r /= row_scale
        d /= col_scale
        x = x * col_scale
    primal = float(np.linalg.norm(r))
    gap_raw = float(problem.c @ z.x - problem.b @ z.y)
    if problem.nonneg:
        dual = float(np.linalg.norm(np.minimum(d, 0.0)))
        gap = max(gap_raw, 0.0)
        bound = float(np.linalg.norm(np.minimum(x, 0.0)))
    else:
        dual = float(np.linalg.norm(d))
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
    """
    if A.nnz == 0:
        raise ValueError("power method undefined for an all-zero matrix")
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
            return math.sqrt(max(lam, 0.0))
        prev = lam
    warnings.warn(
        f"power iteration did not converge to rel tol {tol} in {max_iters} "
        "iterations; returning best estimate",
        RuntimeWarning,
    )
    return math.sqrt(max(lam, 0.0))
