"""One-iteration updates for the primal-dual methods.

All four steps share one contract: ``step(problem, z, ..., out=None)``
takes the current iterate z^t, a :class:`SaddlePoint` (or an
:class:`AdmmPoint` for ADMM), and returns a :class:`StepOutput` holding the
next iterate z^{t+1} and the target point zhat^{t+1} whose running average
carries the ergodic guarantee.  A step only reads ``z``, so its arrays may
be views into a larger buffer.  The next iterate is written into ``out``, a
flat float64 buffer laid out like ``as_vector()`` ([x; y], or
[x_U; x_V; y] for ADMM), and the returned points are views into it.  A
method whose target differs from the next iterate writes the target into a
second flat buffer, ``target``.  A buffer left out is allocated, and the
same code runs either way, so a run that passes its own buffers makes one
step without allocating any array.  ``out`` and ``target`` are checked:
float64, writeable, the right length, and no memory shared with ``z``.

What a method reuses across steps is its argument after the config, built
once by a restarted run: PPM's :class:`NormalFactor`, ADMM's
:class:`AffineProjector`, and for PDHG and EGM the :class:`StepOperators`.
Those hold the step sizes folded into the data (tau A', -sigma A, tau c and
sigma b, with tau = eta/omega and sigma = eta omega), so that each product
adds straight into the half of the output it updates:

    x+ = max((x - tau c) + tau A'y, 0)
    y+ = (y + sigma b) + (-sigma A)(2 x+ - x)

They also own two iterate buffers, checked when allocated, with the views
and the :class:`StepOutput` of a step into each built in advance; a step
into one of them from the point the other holds needs no check at all.  A
one-off step that is given no operators builds its own, so each method has
one arithmetic path.  For PDHG and PPM the next iterate and the target
coincide; EGM's target is the intermediate (extrapolated) point and ADMM's
target differs from the iterate in the multiplier block only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .lp_core import SaddlePoint, is_buffer

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
    EGM to eta/omega and eta*omega; ADMM's eta plays that role itself.

    ``eta`` and ``lipschitz`` are in the units of the caller's A.  When
    :func:`~restartlp.restarts.run_restarted` rescales an LP to A~ = D1 A D2
    it steps PDHG and EGM with eta sigma(A) / sigma(A~) and L sigma(A~) /
    sigma(A) (power-method estimates), so eta * sigma_max and eta * L are
    the same on the matrix iterated as on A; ADMM's eta is used as given.
    """

    method: Method
    eta: float
    omega: float = 1.0
    lipschitz: float | None = None

    def __post_init__(self):
        if self.method not in _CONSTANTS:
            raise ValueError(f"unknown method {self.method!r}")
        if not self.eta > 0:
            raise ValueError("eta must be positive")
        if not self.omega > 0:
            raise ValueError("omega must be positive")
        if self.lipschitz is not None and not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if self.method == EGM and self.lipschitz is not None and self.eta > 1.0 / self.lipschitz * (1 + 1e-12):
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


def _buffer(buf, size, *reads):
    """A step's flat output: ``buf`` once checked (see the module
    docstring), or a new array when it is None."""
    if buf is None:
        return np.empty(size)
    if not is_buffer(buf, size):
        raise ValueError(f"step buffer must be a writeable float64 array of shape ({size},)")
    _check_reads(buf, *reads)
    return buf


def _check_reads(buf, *reads):
    for arr in reads:
        if np.may_share_memory(buf, arr):
            raise ValueError("step buffer shares memory with the point it steps from")


class StepOperators:
    """What PDHG and EGM reuse across the steps of one solve, bound once.

    With tau = eta/omega and sigma = eta omega from ``config``:

    * ``K`` runs both products with the step sizes folded in:
      ``K.rmatvec(y)`` is tau A'y and ``K.matvec(x)`` is -sigma A x, from
      one copy of each layout's values
      (:meth:`~restartlp.lp_core.SparseMatrix.scaled_products`);
    * ``tau_c`` and ``sigma_b`` are tau c and sigma b;
    * ``buffers`` are two flat iterate buffers [x; y] that a run alternates
      between, and ``target`` is EGM's target buffer (None for PDHG);
    * ``work`` is PDHG's length-n scratch for 2 x+ - x, never returned.

    The views of a step into each buffer and the :class:`StepOutput` it
    returns are built here.  A step into ``buffers[k]`` (with ``target``
    for EGM) from the point the other buffer holds, the ``next`` of the
    previous step's output, is checked by identity only; from any other
    point, such as an anchor after a restart, it gets the same memory
    check as a caller's buffer.
    """

    def __init__(self, problem, config):
        if config.method not in (PDHG, EGM):
            raise ValueError(f"step operators are for PDHG and EGM, not {config.method}")
        tau = config.eta / config.omega
        sigma = config.eta * config.omega
        self.problem, self.config = problem, config
        self.n = n = problem.n
        self.size = size = n + problem.m
        self.K = problem.A.scaled_products(-sigma, tau)
        self.tau_c = tau * problem.c
        self.sigma_b = sigma * problem.b
        self.work = np.empty(n) if config.method == PDHG else None
        self.target = np.empty(size) if config.method == EGM else None
        self.buffers = (np.empty(size), np.empty(size))
        layouts = [self._layout(buf, self.target) for buf in self.buffers]
        # per buffer: its views, its output, and the point whose step into
        # it needs no check (the one the other buffer holds)
        self._bound = {id(buf): (*layout, other[1].next)
                       for buf, layout, other in zip(self.buffers, layouts, layouts[::-1])}

    def _layout(self, out, target):
        n = self.n
        nxt = SaddlePoint(out[:n], out[n:])
        if target is None:
            return (nxt.x, nxt.y), StepOutput(nxt, nxt)
        tgt = SaddlePoint(target[:n], target[n:])
        return (nxt.x, nxt.y, tgt.x, tgt.y), StepOutput(nxt, tgt)

    def bind(self, z, out, target=None):
        """The views a step from ``z`` writes, and the output it returns:
        built in advance for one of ``buffers`` (and ``target``), else over
        ``out`` and ``target`` once checked, or new arrays for those left
        out."""
        bound = self._bound.get(id(out))
        if bound is not None and target is self.target:
            views, result, partner = bound
            if z is not partner:
                _check_reads(out, z.x, z.y)
                if target is not None:
                    _check_reads(target, z.x, z.y)
            return views, result
        out = _buffer(out, self.size, z.x, z.y)
        if self.target is not None:
            target = _buffer(target, self.size, z.x, z.y, out)
        return self._layout(out, target)


def _operators(problem, config, ops):
    """``ops`` once matched to the step's problem and config, or new
    operators when it is None."""
    if ops is None:
        return StepOperators(problem, config)
    if ops.problem is not problem or (ops.config is not config and ops.config != config):
        raise ValueError("step operators were built for another problem or step config")
    return ops


def pdhg_step(problem, z, config, ops=None, out=None):
    """One PDHG iteration on the LP Lagrangian.

    x^{t+1} = (x^t - (eta/w)(c - A'y^t))^+
    y^{t+1} = y^t + (eta w)(b - A(2 x^{t+1} - x^t))

    computed as max((x - tau c) + tau A'y, 0) and
    (y + sigma b) + (-sigma A)(2 x+ - x) through ``ops`` (a
    :class:`StepOperators`, built here when None).
    """
    ops = _operators(problem, config, ops)
    (x1, y1), result = ops.bind(z, out)
    K, w = ops.K, ops.work
    np.subtract(z.x, ops.tau_c, out=x1)
    K.rmatvec(z.y, x1)
    if problem.nonneg:
        np.maximum(x1, _ZERO, out=x1)
    np.add(x1, x1, out=w)
    np.subtract(w, z.x, out=w)
    np.add(z.y, ops.sigma_b, out=y1)
    K.matvec(w, y1)
    return result


def egm_step(problem, z, config, ops=None, out=None, target=None):
    """One extragradient iteration: predictor zhat, corrector from F(zhat).

    zhat    = (max((x - tau c) + tau A'y, 0),    (y + sigma b) + (-sigma A) x)
    z^{t+1} = (max((x - tau c) + tau A'yhat, 0), (y + sigma b) + (-sigma A) xhat)

    through ``ops`` (a :class:`StepOperators`, built here when None); the
    target is zhat."""
    ops = _operators(problem, config, ops)
    (x1, y1, xh, yh), result = ops.bind(z, out, target)
    K, tau_c, sigma_b = ops.K, ops.tau_c, ops.sigma_b
    np.subtract(z.x, tau_c, out=xh)
    K.rmatvec(z.y, xh)
    if problem.nonneg:
        np.maximum(xh, _ZERO, out=xh)
    np.add(z.y, sigma_b, out=yh)
    K.matvec(z.x, yh)
    np.subtract(z.x, tau_c, out=x1)
    K.rmatvec(yh, x1)
    if problem.nonneg:
        np.maximum(x1, _ZERO, out=x1)
    np.add(z.y, sigma_b, out=y1)
    K.matvec(xh, y1)
    return result


# Residual bound of the PPM inner solve, relative to 1 + |rhs|.
_PPM_TOL = 1e-12


def ppm_bilinear_step(problem, z, eta, factor=None, out=None):
    """One exact proximal-point iteration on an unconstrained bilinear problem.

    Solves (I + eta F)(z^{t+1}) = z^t, i.e. the linear system

        x - eta A'y = x^t - eta c
        y + eta A x = y^t + eta b

    by eliminating x: y solves (s I + A A') y = s rhs with s = 1/eta^2.
    ``factor`` is the :class:`NormalFactor` of that matrix; a restarted run
    builds it once and passes it to every step, and a one-off call leaves it
    out and gets a fresh one.  The solve is refined until the residual of the
    second block row, recomputed from the returned (x, y), is at most
    1e-12 (1 + |rhs|); otherwise :class:`AffineProjectionError` is raised.
    """
    if problem.nonneg:
        raise ValueError("PPM steps are implemented for unconstrained bilinear "
                         "problems only")
    s = 1.0 / (eta * eta)
    if factor is None:
        factor = NormalFactor(problem.A, s)
    elif factor.shift != s:
        raise ValueError("PPM factor was built for a different step size")
    A = problem.A
    n = problem.n
    out = _buffer(out, n + problem.m, z.x, z.y)
    x1, y1 = out[:n], out[n:]
    np.multiply(problem.c, eta, out=x1)
    np.subtract(z.x, x1, out=x1)
    y1.fill(0.0)
    top = z.y + eta * problem.b
    rhs = top - eta * A.matvec(x1)

    def correct(dy):
        nonlocal x1, y1
        y1 += dy
        x1 += eta * A.rmatvec(dy)
        return s * (top - y1 - eta * A.matvec(x1))

    factor.refine(correct, s * rhs, s * _PPM_TOL * (1.0 + float(np.linalg.norm(rhs))))
    nxt = SaddlePoint(x1, y1)
    return StepOutput(nxt, nxt)


# ---------------------------------------------------------------------------
# Normal equations and ADMM
# ---------------------------------------------------------------------------


class AffineProjectionError(RuntimeError):
    pass


# Diagonal shift, relative to the largest diagonal entry of A A', added before
# factoring so that a rank-deficient A A' (duplicate, zero or dependent rows
# of A) still factors; refinement removes its effect on consistent systems.
_FACTOR_SHIFT = 1e-13
# Factored solves one refinement may take before it gives up.
_MAX_SOLVES = 8


class NormalFactor:
    """Sparse LU factor of s I + A A', formed and factored once.

    A A' comes from the two layouts of :class:`SparseMatrix`;
    ``scipy.sparse.linalg.splu`` factors it after a tiny diagonal shift.
    :meth:`refine` never trusts a back-solve: it repeats the solve on the
    true residual, which the caller recomputes from its own iterate, until
    that residual is small enough.  Rank-deficient A is allowed as long as
    the system is consistent.
    """

    def __init__(self, A, shift=0.0):
        gram = A.gram()
        scale = float(gram.diagonal().max(initial=0.0)) or 1.0
        self.shift = shift
        reg = (shift + _FACTOR_SHIFT * scale) * sp.eye_array(A.n_rows, format="csc")
        self._lu = spla.splu(gram + reg)

    def refine(self, correct, residual, atol):
        """Iterative refinement: ``correct(d)`` applies the solution d of
        (s I + A A') d = residual to the caller's iterate and returns the
        new true residual.  Raises :class:`AffineProjectionError` when the
        residual is still above ``atol`` after ``_MAX_SOLVES`` solves."""
        for _ in range(_MAX_SOLVES):
            residual = correct(self._lu.solve(residual))
            if np.linalg.norm(residual) <= atol:
                return
        raise AffineProjectionError(
            f"factored normal-equation solve failed to reach {atol:.2e} (residual "
            f"{np.linalg.norm(residual):.2e}); the system may be inconsistent")


# Relative residual to which AffineProjector verifies its projections and
# normal-equation solves.
PROJECTION_TOL = 1e-10


class AffineProjector:
    """Euclidean projection onto {x : Ax = b} through one factor of A A'.

    project(p) = p + A'w where A A' w = b - A p.  A A' is formed and
    factored once, when the projector is built (a :class:`NormalFactor` with
    s = 0); each projection refines w against the residual b - A p' of the
    returned point until |A p' - b| <= tol (1 + |b|) is verified, and raises
    :class:`AffineProjectionError` if it cannot be.  Rank-deficient A
    (duplicate, zero or dependent rows) is fine when Ax = b is consistent.
    """

    def __init__(self, A, b, tol=PROJECTION_TOL):
        self.A = A
        self.b = np.asarray(b, dtype=np.float64)
        self.tol = tol
        self.factor = NormalFactor(A)

    def project(self, point):
        out = np.array(point, dtype=np.float64)
        r = self.b - self.A.matvec(out)
        atol = self.tol * (1.0 + float(np.linalg.norm(self.b)))
        if np.linalg.norm(r) <= atol:
            return out

        def correct(w):
            nonlocal out
            out += self.A.rmatvec(w)
            return self.b - self.A.matvec(out)

        self.factor.refine(correct, r, atol)
        return out

    def solve_normal(self, rhs):
        """Solve A A' w = rhs with the same factor (ADMM's dual extraction);
        the residual |A A' w - rhs| <= tol (1 + |rhs|) is verified."""
        w = np.zeros(self.A.n_rows)
        atol = self.tol * (1.0 + float(np.linalg.norm(rhs)))

        def correct(d):
            nonlocal w
            w += d
            return rhs - self.A.matvec(self.A.rmatvec(w))

        self.factor.refine(correct, rhs, atol)
        return w


@dataclass
class AdmmPoint:
    """A point of the splitting formulation: (x_U, x_V, y) with x_U in
    {Ax = b}, x_V >= 0, and y the multiplier of x_U - x_V = 0."""

    x_u: np.ndarray
    x_v: np.ndarray
    y: np.ndarray

    def as_vector(self):
        return np.concatenate([self.x_u, self.x_v, self.y])

    @classmethod
    def from_vector(cls, v, n):
        return cls(v[:n].copy(), v[n:2 * n].copy(), v[2 * n:].copy())


def admm_step(problem, z, config, projector, out=None, target=None):
    """One ADMM iteration from the point ``z`` on the split form
    min c'x_V over x_U = x_V, x_U in {Ax = b}, x_V >= 0.

        x_U^{t+1} = proj_{Ax=b}(x_V^t + y^t / eta)
        x_V^{t+1} = (x_U^{t+1} - y^t/eta - c/eta)^+
        y^{t+1}   = y^t - eta (x_U^{t+1} - x_V^{t+1})

    The target differs from the iterate by eta (x_V^{t+1} - x_V^t) in the
    multiplier block.  ``projector`` is the :class:`AffineProjector` onto
    {Ax = b}, built once per run.  x_U^t is not read.
    """
    eta = config.eta
    n = problem.n
    out = _buffer(out, 3 * n, z.x_v, z.y)
    target = _buffer(target, 3 * n, z.x_v, z.y, out)
    xu = projector.project(z.x_v + z.y / eta)
    xv = np.maximum(xu - z.y / eta - problem.c / eta, 0.0)
    target[2 * n:] = z.y - eta * (xu - z.x_v)
    out[2 * n:] = z.y - eta * (xu - xv)
    out[:n] = xu
    out[n:2 * n] = xv
    target[:2 * n] = out[:2 * n]
    return StepOutput(AdmmPoint(out[:n], out[n:2 * n], out[2 * n:]),
                      AdmmPoint(target[:n], target[n:2 * n], target[2 * n:]))
