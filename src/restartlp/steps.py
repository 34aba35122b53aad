"""One-iteration updates for the primal-dual methods.

Every point is one flat float64 vector ``vec`` with its blocks as views
of it: [x; y] for a :class:`SaddlePoint`, [x_U; x_V; y] for an
:class:`AdmmPoint`.  Every step takes the current iterate z^t, reads it
only, and returns a :class:`StepOutput`: the next iterate z^{t+1} and the
target point zhat^{t+1} whose running average carries the ergodic
guarantee.  For PDHG and PPM the next iterate and the target coincide;
EGM's target is the intermediate (extrapolated) point and ADMM's differs
from the iterate in the multiplier block only.

PDHG, EGM and ADMM step through operators, their argument after the config:
:class:`StepOperators` and :class:`AdmmOperators`, built once by a restarted
run, or by a one-off step for itself.  They hold the data with the step
size folded in, the step's scratch and the iterate buffers: two flat
buffers for the next iterate and, for EGM and ADMM, one for the target,
with the output of a step into each built once over them.  A step writes
into the buffer that is not ``z.vec``: from a point over one of the two
buffers it goes into the other with no check; from any other point, such
as an anchor after a restart, into the first buffer once ``z.vec`` is
checked to share no memory with it or with the target buffer.  A run that
steps from each output's ``next`` thus alternates between the two buffers
and allocates nothing, and an output stays valid until the step after the
next one overwrites it.

PDHG and EGM start both blocks of a step's output with one addition on
the flat vectors, z + [-tau c; sigma b], and add the products into it.
PDHG's two products run in order, since the dual one reads the new x.
EGM's two half-steps each apply the linear part of F to a whole point, so
each is one product with M = [[0, tau A'], [-sigma A, 0]]
(:meth:`~restartlp.lp_core.SparseMatrix.saddle_products`), with the bits
of the two it replaces: M's one layout stacks the rows of tau A' (one
transpose per solve) on those of -sigma A.

PPM allocates its output.  It solves with the factor of s I + A A' kept in
the matrix's memo (:meth:`NormalFactor.of`), so that factor is built once
per matrix and shift; so does ADMM's projection, with s = 0.  The factor is
a sparse LU, applied by its back-solve, unless the LU takes at least the
bytes of a dense inverse: then the inverse is formed once and each solve is
one matrix-vector product with it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lp_core import SaddlePoint, _FlatPoint, _norm, is_buffer

__all__ = [
    "Method",
    "StepConfig",
    "StepOutput",
    "AdmmPoint",
    "NormalFactor",
    "AffineProjector",
    "AffineProjectionError",
    "PROJECTION_TOL",
    "StepOperators",
    "AdmmOperators",
    "pdhg_step",
    "egm_step",
    "admm_step",
    "ppm_bilinear_step",
]

PDHG = "pdhg"
EGM = "egm"
ADMM = "admm"
PPM_BILINEAR = "ppm"

Method = str  # one of the four constants above

# (C, q) pairs entering the restart-length bound t* = ceil(2C(q+2)/(alpha beta)):
# the sufficient-decay constant C and the target-proximity constant q of each
# method, in its own norm.
_CONSTANTS = {
    PDHG: (lambda eta: 1.0 / eta, 0.0),
    EGM: (lambda eta: 1.0 / eta, 3.0),
    ADMM: (lambda eta: 1.0, 2.0),
    PPM_BILINEAR: (lambda eta: 1.0 / eta, 0.0),
}


@dataclass(frozen=True)
class StepConfig:
    """Method selector plus step size and primal weight.

    ``eta`` must satisfy eta <= 1/sigma_max(A) for PDHG and eta <= 1/L for
    EGM (L = Lipschitz constant of F; equals sigma_max(A) for the bilinear
    LP Lagrangian).  ``omega`` rescales the primal/dual steps of PDHG and
    EGM to eta/omega and eta*omega.  No ADMM or PPM step reads it, so it
    must be 1 for them; ADMM's eta plays that role itself.

    ``lipschitz`` (L) is checked, not kept: when it is given, building an
    EGM config checks eta <= 1/L.  It is an init-only argument, so
    ``config.lipschitz`` reads the default None.

    ``eta`` is in the units of the caller's A.  When
    :func:`~restartlp.restarts.run_restarted` rescales an LP to A~ = D1 A D2
    it steps PDHG and EGM with eta sigma(A) / sigma(A~) (power-method
    estimates), so eta * sigma_max is the same on the matrix iterated as on
    A; ADMM's eta is used as given.
    """

    method: Method
    eta: float
    omega: float = 1.0
    lipschitz: InitVar[float | None] = None

    def __post_init__(self, lipschitz):
        if self.method not in _CONSTANTS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if self.method in (ADMM, PPM_BILINEAR) and self.omega != 1.0:
            raise ValueError(f"omega applies to PDHG and EGM only; {self.method} takes omega = 1")
        if lipschitz is not None and not 0 < lipschitz < math.inf:
            raise ValueError("lipschitz must be positive and finite")
        if self.method == EGM and lipschitz is not None and self.eta > 1.0 / lipschitz * (1 + 1e-12):
            raise ValueError("EGM requires eta <= 1/L")

    @property
    def sufficient_decay_c(self):
        return _CONSTANTS[self.method][0](self.eta)

    @property
    def target_proximity_q(self):
        return _CONSTANTS[self.method][1]


@dataclass
class StepOutput:
    next: object      # SaddlePoint, or AdmmPoint for ADMM
    target: object


# The bound of x >= 0 as a 0-d array: a ufunc takes it faster than a Python
# float, with the same result.
_ZERO = np.array(0.0)


class _Operators:
    """The iterate buffers of a method's steps: two flat buffers for the
    next iterate and, for a method whose target differs from it, one for
    the target, with the :class:`StepOutput` of a step into each built once
    over them: points of class ``point`` with blocks of ``problem.n``
    entries (see :meth:`~restartlp.lp_core.SaddlePoint.over`)."""

    def __init__(self, problem, config, point, size, with_target):
        self.problem, self.config = problem, config
        self.buffers = np.empty(size), np.empty(size)
        self.target = np.empty(size) if with_target else None
        target = None if self.target is None else point.over(self.target, problem.n)
        self._outputs = [StepOutput(nxt, nxt if target is None else target)
                         for nxt in (point.over(buf, problem.n) for buf in self.buffers)]

    def bind(self, z):
        """The output of a step from ``z``: the one into the buffer that is
        not ``z.vec`` (see the module docstring)."""
        first, second = self.buffers
        vec = z.vec
        if vec is first:
            return self._outputs[1]
        if vec is not second:
            for buf in (first, self.target):
                if buf is not None and np.may_share_memory(buf, vec):
                    raise ValueError("step buffer shares memory with the point it steps from")
        return self._outputs[0]


class StepOperators(_Operators):
    """What PDHG and EGM reuse across the steps of one solve, bound once.

    With tau = eta/omega and sigma = eta omega from ``config``:

    * for PDHG, ``tau_A`` and ``neg_sigma_A`` are the matrices tau A and
      -sigma A (:meth:`~restartlp.lp_core.SparseMatrix.times`), each one
      value array over A's index arrays: the step reads tau A'y as
      ``tau_A.rmatvec(y)`` and -sigma A x as ``neg_sigma_A.matvec(x)``;
    * for EGM, ``M`` is the saddle operator [[0, tau A'], [-sigma A, 0]]
      (:meth:`~restartlp.lp_core.SparseMatrix.saddle_products`):
      ``M.matvec(z, out)`` adds tau A'y to the x block of ``out`` and
      -sigma A x to its y block, in one kernel call;
    * ``shift`` is the flat [-tau c; sigma b] that a step adds to [x; y];
    * ``buffers`` are the two flat iterate buffers [x; y] and ``target`` is
      EGM's target buffer (None for PDHG) (see the module docstring);
    * ``work`` is PDHG's length-n scratch for 2 x+ - x, never returned.

    What a method does not use (``M`` for PDHG; ``tau_A``, ``neg_sigma_A``
    and ``work`` for EGM) is None.
    """

    def __init__(self, problem, config):
        if config.method not in (PDHG, EGM):
            raise ValueError(f"step operators are for PDHG and EGM, not {config.method}")
        tau = config.eta / config.omega
        sigma = config.eta * config.omega
        self.shift = np.concatenate([-(tau * problem.c), sigma * problem.b])
        if config.method == PDHG:
            self.tau_A, self.neg_sigma_A = problem.A.times(tau), problem.A.times(-sigma)
            self.M, self.work = None, np.empty(problem.n)
        else:
            self.tau_A = self.neg_sigma_A = self.work = None
            self.M = problem.A.saddle_products(-sigma, tau)
        super().__init__(problem, config, SaddlePoint, problem.n + problem.m,
                         config.method == EGM)


def _operators(kind, problem, config, ops):
    """``ops`` once matched to the step's problem and config, or new
    operators of class ``kind`` when it is None.  Operators of another
    class hold another config, so the match rejects them too."""
    if ops is None:
        return kind(problem, config)
    if (getattr(ops, "problem", None) is not problem
            or (ops.config is not config and ops.config != config)):
        raise ValueError("step operators were built for another problem or step config")
    return ops


def pdhg_step(problem, z, config, ops=None):
    """One PDHG iteration on the LP Lagrangian.

    x^{t+1} = (x^t - (eta/w)(c - A'y^t))^+
    y^{t+1} = y^t + (eta w)(b - A(2 x^{t+1} - x^t))

    computed as max((x - tau c) + (tau A)'y, 0) and
    (y + sigma b) + (-sigma A)(2 x+ - x) through ``ops`` (a
    :class:`StepOperators`, built here when None), both blocks started by
    one addition on the flat vectors.
    """
    ops = _operators(StepOperators, problem, config, ops)
    result = ops.bind(z)
    x1, w = result.next.x, ops.work
    np.add(z.vec, ops.shift, out=result.next.vec)
    ops.tau_A.rmatvec(z.y, x1)
    if problem.nonneg:
        np.maximum(x1, _ZERO, out=x1)
    np.add(x1, x1, out=w)
    np.subtract(w, z.x, out=w)
    ops.neg_sigma_A.matvec(w, result.next.y)
    return result


def egm_step(problem, z, config, ops=None):
    """One extragradient iteration: predictor zhat, corrector from F(zhat).

    zhat    = (max((x - tau c) + tau A'y, 0),    (y + sigma b) + (-sigma A) x)
    z^{t+1} = (max((x - tau c) + tau A'yhat, 0), (y + sigma b) + (-sigma A) xhat)

    through ``ops`` (a :class:`StepOperators`, built here when None): both
    points start as z + [-tau c; sigma b], and each takes in its two
    products as one product with the saddle operator ``ops.M``, from z for
    zhat and from zhat for z^{t+1}.  The target is zhat."""
    ops = _operators(StepOperators, problem, config, ops)
    result = ops.bind(z)
    nxt, hat = result.next, result.target
    M, zvec, z1, x1, zh, xh = ops.M, z.vec, nxt.vec, nxt.x, hat.vec, hat.x
    np.add(zvec, ops.shift, out=zh)
    np.copyto(z1, zh)
    M.matvec(zvec, zh)
    if problem.nonneg:
        np.maximum(xh, _ZERO, out=xh)
    M.matvec(zh, z1)
    if problem.nonneg:
        np.maximum(x1, _ZERO, out=x1)
    return result


def _check_fits(problem, method):
    """Reject ``method`` where its steps do not apply to ``problem``, the
    one place that says which problems a method runs on: PPM steps only an
    unconstrained bilinear problem, and ADMM, whose split form clips x_V at
    0, only an LP (x >= 0)."""
    if method == PPM_BILINEAR and problem.nonneg:
        raise ValueError("PPM steps are implemented for unconstrained bilinear "
                         "problems only")
    if method == ADMM and not problem.nonneg:
        raise ValueError("ADMM steps only an LP (x >= 0), not an unconstrained "
                         "bilinear problem")


# Residual bound of the PPM inner solve, relative to 1 + |rhs|.
_PPM_TOL = 1e-12


def ppm_bilinear_step(problem, z, eta):
    """One exact proximal-point iteration on an unconstrained bilinear problem.

    Solves (I + eta F)(z^{t+1}) = z^t, i.e. the linear system

        x - eta A'y = x^t - eta c
        y + eta A x = y^t + eta b

    by eliminating x: y solves (s I + A A') y = s rhs with s = 1/eta^2,
    through the factor of that matrix kept in A's memo
    (:meth:`NormalFactor.of`).  The solve is refined until the residual of
    the second block row, recomputed from the returned (x, y), is at most
    1e-12 (1 + |rhs|); otherwise :class:`AffineProjectionError` is raised.
    """
    _check_fits(problem, PPM_BILINEAR)
    A, n = problem.A, problem.n
    s = 1.0 / (eta * eta)
    nxt = SaddlePoint.over(np.zeros(n + problem.m), n)
    x1, y1 = nxt.x, nxt.y
    np.subtract(z.x, problem.c * eta, out=x1)
    top = z.y + eta * problem.b

    def residual():
        # top - y1 - eta A x1
        return (top - y1) - A.matvec(x1) * eta

    def correct(dy):
        np.add(y1, dy, out=y1)
        np.add(x1, A.rmatvec(dy) * eta, out=x1)
        return residual() * s

    res = residual()
    NormalFactor.of(A, s).refine(correct, res * s, s * _PPM_TOL * (1.0 + _norm(res)))
    return StepOutput(nxt, nxt)


# ---------------------------------------------------------------------------
# Normal equations and ADMM
# ---------------------------------------------------------------------------


class AffineProjectionError(ValueError):
    """A factored solve that cannot reach its residual bound: the system,
    such as an inconsistent Ax = b, is one the solve cannot meet."""


# Diagonal shift, relative to the largest diagonal entry of A A', added before
# factoring so that a rank-deficient A A' (duplicate, zero or dependent rows
# of A) still factors; refinement removes its effect on consistent systems.
_FACTOR_SHIFT = 1e-13
# Factored solves one refinement may take before it gives up.
_MAX_SOLVES = 8
# Columns of a dense inverse solved for at once (see _inverse).
_INVERSE_COLUMNS = 32


def _inverse(lu, m):
    """The inverse of the m x m matrix factored in ``lu``, solved for in
    blocks of _INVERSE_COLUMNS columns of the identity into one array.

    Each block's right-hand side and SuperLU's workspace for it hold
    m x _INVERSE_COLUMNS values, not the m x m of a solve against
    ``np.eye(m)``, which left about 0.1 MB more resident per 200 x 200
    factor.  The solve of a column does not depend on the columns solved
    with it, so the bits equal those of ``lu.solve(np.eye(m))``; the array
    is Fortran-ordered as that one is, so that products with it run the
    same BLAS kernel.
    """
    inverse = np.empty((m, m), order="F")
    rhs = np.zeros((m, _INVERSE_COLUMNS), order="F")
    for j in range(0, m, _INVERSE_COLUMNS):
        w = min(_INVERSE_COLUMNS, m - j)
        eye = rhs[j:j + w, :w]
        np.fill_diagonal(eye, 1.0)
        inverse[:, j:j + w] = lu.solve(rhs[:, :w])
        eye.fill(0.0)
    return inverse


class NormalFactor:
    """Factor of s I + A A', formed and factored once.

    A A' is :meth:`~restartlp.lp_core.SparseMatrix.gram`;
    ``scipy.sparse.linalg.splu`` factors it after a tiny diagonal shift.
    How a solve is applied depends on the size of that LU.  When its stored
    nonzeros (8-byte values and 4-byte indices, ``12 * nnz`` bytes) take at
    least the 8 m^2 bytes of a dense m x m inverse, the inverse is formed
    from the LU once, a block of columns at a time (``inverse``), and each
    solve is one matrix-vector product with it; the LU is then dropped.
    Otherwise ``inverse`` is None and each solve is the LU's back-solve.
    Either way a solve returns a new array, so the factor holds no state
    and its solves may interleave.  :meth:`refine` never trusts a solve:
    it repeats the solve on the true residual, which the caller recomputes
    from its own iterate, until that residual is small enough.  Rank-deficient A is allowed as long as
    the system is consistent.  :meth:`of` returns the factor kept in the
    matrix's memo, so that the solves and tuning runs on one matrix share
    it.

    Both paths read BLAS: SuperLU's factor and back-solves call it, and the
    dense inverse's product is ``dgemv``, whose summation order depends on
    the CPU kernel OpenBLAS picks (SuperLU's factor differs first: on the
    scaled A of planted 200x400 it gave different bits under the SkylakeX,
    Haswell and Prescott kernels).  So the bits of ADMM and PPM solves
    depend on the OpenBLAS kernel even where every reduction of
    :mod:`~restartlp.lp_core` has a fixed order, and the golden solve
    record compares their iteration counts exactly and their floats to
    1e-6.  A factor and apply without BLAS would be an O(m^3) dense
    factorization in numpy elementwise operations per matrix; it is not
    made.
    """

    def __init__(self, A, shift=0.0):
        gram = A.gram()
        scale = float(gram.diagonal().max(initial=0.0)) or 1.0
        reg = (shift + _FACTOR_SHIFT * scale) * sp.eye_array(A.n_rows, format="csc")
        lu = spla.splu(gram + reg)
        m = A.n_rows
        if 12 * lu.nnz >= 8 * m * m:
            self.inverse = _inverse(lu, m)
            self._solve = self.inverse.dot
        else:
            self.inverse = None
            self._solve = lu.solve

    @classmethod
    def of(cls, A, shift=0.0):
        """The factor of ``shift`` I + A A', built on first use and then kept
        in ``A``'s memo (see :class:`~restartlp.lp_core.SparseMatrix`)."""
        return A.derived(("normal_factor", shift), lambda: cls(A, shift))

    def refine(self, correct, residual, atol):
        """Iterative refinement: ``correct(d)`` applies the solution d of
        (s I + A A') d = residual to the caller's iterate and returns the
        new true residual.  Raises :class:`AffineProjectionError` when the
        residual is still above ``atol`` after ``_MAX_SOLVES`` solves."""
        for _ in range(_MAX_SOLVES):
            residual = correct(self._solve(residual))
            if _norm(residual) <= atol:
                return
        raise AffineProjectionError(
            f"factored normal-equation solve failed to reach {atol:.2e} (residual "
            f"{_norm(residual):.2e}); the system may be inconsistent")


# Relative residual to which AffineProjector verifies its projections and
# normal-equation solves.
PROJECTION_TOL = 1e-10


class AffineProjector:
    """Euclidean projection onto {x : Ax = b} through one factor of A A'.

    project(p) = p + A'w where A A' w = b - A p.  The factor of A A' is the
    one kept in A's memo (:meth:`NormalFactor.of` with s = 0), so it is
    formed and factored once per matrix; each projection refines w against
    the residual b - A p' of the returned point until
    |A p' - b| <= PROJECTION_TOL (1 + |b|) is verified, and raises
    :class:`AffineProjectionError` if it cannot be.  Rank-deficient A
    (duplicate, zero or dependent rows) is fine when Ax = b is consistent.
    A projection works in scratch the projector owns, so one projector
    serves one caller at a time.
    """

    def __init__(self, A, b):
        self.A = A
        self.b = np.asarray(b, dtype=np.float64)
        self.atol = PROJECTION_TOL * (1.0 + _norm(self.b))
        self.factor = NormalFactor.of(A)
        self._residual = np.empty(A.n_rows)
        self._lift = np.empty(A.n_cols)

    def _residual_of(self, p):
        """b - A p, into the projector's scratch."""
        r = self._residual
        r.fill(0.0)
        self.A.matvec(p, r)
        return np.subtract(self.b, r, out=r)

    def project(self, point, out=None):
        """The projection of ``point``, written into ``out`` (a writeable
        float64 array of its length, which may be ``point`` itself) or into
        a new array."""
        if out is None:
            out = np.array(point, dtype=np.float64)
        elif not is_buffer(out, self.A.n_cols):
            raise ValueError(f"out must be a writeable float64 array of shape ({self.A.n_cols},)")
        elif out is not point:
            np.copyto(out, point)
        r = self._residual_of(out)
        if _norm(r) <= self.atol:
            return out
        lift = self._lift

        def correct(w):
            lift.fill(0.0)
            np.add(out, self.A.rmatvec(w, lift), out=out)
            return self._residual_of(out)

        self.factor.refine(correct, r, self.atol)
        return out

    def solve_normal(self, rhs):
        """Solve A A' w = rhs with the same factor (ADMM's dual extraction);
        the residual |A A' w - rhs| <= PROJECTION_TOL (1 + |rhs|) is verified."""
        w = np.zeros(self.A.n_rows)
        atol = PROJECTION_TOL * (1.0 + _norm(rhs))

        def correct(d):
            nonlocal w
            w += d
            return rhs - self.A.matvec(self.A.rmatvec(w))

        self.factor.refine(correct, rhs, atol)
        return w


class AdmmPoint(_FlatPoint):
    """A point of the splitting formulation: (x_U, x_V, y) with x_U in
    {Ax = b}, x_V >= 0, and y the multiplier of x_U - x_V = 0, held as
    ``vec`` = [x_U; x_V; y]."""

    _blocks = ("x_u", "x_v", "y")


class AdmmOperators(_Operators):
    """What ADMM reuses across the steps of one solve, bound once:

    * ``projector``, the :class:`AffineProjector` onto {Ax = b}, whose
      factor comes from the matrix's memo;
    * ``c_eta``, c / eta, and ``y_eta``, the length-n scratch for y / eta;
    * ``buffers``, the two flat iterate buffers [x_U; x_V; y], and
      ``target``, the target buffer (see the module docstring).
    """

    def __init__(self, problem, config):
        if config.method != ADMM:
            raise ValueError(f"ADMM operators are for ADMM, not {config.method}")
        _check_fits(problem, ADMM)
        self.projector = AffineProjector(problem.A, problem.b)
        self.c_eta = problem.c / config.eta
        self.y_eta = np.empty(problem.n)
        super().__init__(problem, config, AdmmPoint, 3 * problem.n, True)


def admm_step(problem, z, config, ops=None):
    """One ADMM iteration from the point ``z`` on the split form
    min c'x_V over x_U = x_V, x_U in {Ax = b}, x_V >= 0.

        x_U^{t+1} = proj_{Ax=b}(x_V^t + y^t / eta)
        x_V^{t+1} = (x_U^{t+1} - y^t/eta - c/eta)^+
        y^{t+1}   = y^t - eta (x_U^{t+1} - x_V^{t+1})

    The target differs from the iterate by eta (x_V^{t+1} - x_V^t) in the
    multiplier block.  ``ops`` are the run's :class:`AdmmOperators`, built
    here when None.  x_U^t is not read.
    """
    ops = _operators(AdmmOperators, problem, config, ops)
    result = ops.bind(z)
    nxt, tgt = result.next, result.target
    xu, xv, y1, ty = nxt.x_u, nxt.x_v, nxt.y, tgt.y
    eta, y_eta = config.eta, ops.y_eta
    np.divide(z.y, eta, out=y_eta)
    np.add(z.x_v, y_eta, out=xu)
    ops.projector.project(xu, out=xu)
    np.subtract(xu, y_eta, out=xv)
    np.subtract(xv, ops.c_eta, out=xv)
    np.maximum(xv, _ZERO, out=xv)
    # eta (x_U+ - x_V) for the target, eta (x_U+ - x_V+) for the iterate
    np.subtract(xu, z.x_v, out=ty)
    np.multiply(ty, eta, out=ty)
    np.subtract(z.y, ty, out=ty)
    np.subtract(xu, xv, out=y1)
    np.multiply(y1, eta, out=y1)
    np.subtract(z.y, y1, out=y1)
    np.copyto(tgt.x_u, xu)
    np.copyto(tgt.x_v, xv)
    return result
