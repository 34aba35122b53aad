"""Reference oracles that exist only to validate the package.

* :class:`KktSystem` / :func:`kkt_error` -- the LP optimality conditions as
  one explicit stacked system K z >= h, against which the matrix-free
  :func:`restartlp.lp_core.residuals` is checked.
* :class:`TrustRegionProblem` -- the gap's trust region stated point-wise:
  a linear objective over a ball around a center with lower bounds;
  :func:`gap_trust_region` states the LP gap at a point that way.
* :func:`trust_region_minimizer` -- the minimizer of a
  :class:`TrustRegionProblem` from the step length of the package's one
  solver, :func:`restartlp.gap.solve_linear_trust_region`, and
  :func:`normalized_gap_at` -- the package's
  :func:`restartlp.gap.normalized_gap_lp` at a point, its gradient blocks
  formed here.
* :func:`trust_region_bisection` / :func:`normalized_gap_bisection` -- a slow
  trust-region solve that bisects the scalar equation |zbar(mu) - z| = r of
  the prox-regularized subproblem, against which the closed-form solver
  (through its adapters) is checked.
* :func:`gradient_field` -- F(z) = (c - A'y, Ax - b) as one vector.
* :func:`lagrangian` -- the value L(x, y) = c'x + b'y - y'Ax, from which
  the tests form primal-dual gaps at probe points.
* :func:`affine_project` -- a one-shot projection onto {x : Ax = b}
  through a fresh :class:`restartlp.steps.AffineProjector`.
* :func:`stacked_observe_numpy` -- Table 3's stacked-run hook with every
  test in numpy, against which the scalar
  :func:`restartlp.bilinear._stacked_observe` is checked away from ties.
* :func:`pdhg_by_blocks` / :func:`egm_four_products` -- PDHG and EGM
  steps block by block, with EGM's four products each a product with
  A or A' of its own, against which the flat steps of
  :mod:`restartlp.steps` are checked bit for bit.
* :class:`NormSpec` / :func:`norm_value` -- the norms the methods'
  guarantees are stated in: Euclidean, PDHG's M-norm and ADMM's semi-norm.
* :func:`theoretical_linear_rate_check` -- the linear-rate theorem's
  closed-form check on an instance with known sharpness.
* :func:`dynamics_matrix`, :class:`SpectralBlock` and the B-metric helpers
  -- the closed-form algebra of PDHG on one (x_i, y_i) block of a diagonal
  bilinear problem, against which :mod:`restartlp.bilinear`'s runs and the
  steps are checked.  Each block has complex eigenvalues of squared modulus
  1 - eta^2 sigma^2, and in the metric B of the eigenbasis the iterates
  decay geometrically at exactly that rate while the running average
  decays like 1/K within explicit two-sided bounds.  Complex arithmetic is
  carried as explicit real 2x2 algebra: the eigenbasis metric works out to
  the real symmetric matrix
  B = [[1, -eta sigma], [-eta sigma, 1]] / (2 (1 - eta^2 sigma^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from restartlp.gap import normalized_gap_lp, solve_linear_trust_region
from restartlp.lp_core import Residuals, SaddlePoint, SparseMatrix, _check_dims
from restartlp.restarts import (DEFAULT_BETA, RestartScheme, SolveOptions, fixed_frequency_tstar,
                                run_restarted)
from restartlp.steps import ADMM, PDHG, AffineProjector


@dataclass(frozen=True)
class KktSystem:
    """The stacked optimality system K z >= h for a standard-form LP.

    Row blocks of K (size (2n + 2m + 1) x (n + m)):

        [  I    0 ]        h = (  0 )
        [ -A    0 ]            ( -b )
        [  A    0 ]            (  b )
        [  0  -A' ]            ( -c )
        [ -c'   b']            (  0 )

    so that z solves the LP primal-dual pair iff (h - Kz)^+ = 0.
    """

    K: SparseMatrix
    h: np.ndarray

    @classmethod
    def from_problem(cls, problem):
        if not problem.nonneg:
            raise ValueError("the KKT system encodes x >= 0; not defined for "
                             "unconstrained bilinear problems")
        n, m = problem.n, problem.m
        A = problem.A
        rows = [np.arange(n)]
        cols = [np.arange(n)]
        vals = [np.ones(n)]
        # -A and A blocks
        rows.append(n + A.rows)
        cols.append(A.cols)
        vals.append(-A.vals)
        rows.append(n + m + A.rows)
        cols.append(A.cols)
        vals.append(A.vals)
        # -A' block, dual columns offset by n
        rows.append(n + 2 * m + A.cols)
        cols.append(n + A.rows)
        vals.append(-A.vals)
        # gap row
        last = 2 * n + 2 * m
        jc = np.nonzero(problem.c)[0]
        rows.append(np.full(jc.size, last))
        cols.append(jc)
        vals.append(-problem.c[jc])
        jb = np.nonzero(problem.b)[0]
        rows.append(np.full(jb.size, last))
        cols.append(n + jb)
        vals.append(problem.b[jb])
        K = SparseMatrix(
            2 * n + 2 * m + 1,
            n + m,
            np.concatenate(rows),
            np.concatenate(cols),
            np.concatenate(vals),
        )
        h = np.concatenate([np.zeros(n), -problem.b, problem.b, -problem.c, [0.0]])
        return cls(K, h)


def kkt_error(system, z):
    """Residuals computed from the explicit stacked system."""
    v = system.h - system.K.matvec(z.as_vector())
    vp = np.maximum(v, 0.0)
    nvars = z.x.size
    m = z.y.size
    primal = float(np.linalg.norm(v[nvars + m:nvars + 2 * m]))
    dual = float(np.linalg.norm(vp[nvars + 2 * m:2 * nvars + 2 * m]))
    gap = float(vp[-1])
    return Residuals(primal, dual, gap, float(np.linalg.norm(vp)))


def gradient_field(problem, z):
    """F(z) = (grad_x L, -grad_y L) = (c - A'y, Ax - b), stacked."""
    _check_dims(problem, z)
    return np.concatenate([problem.c - problem.A.rmatvec(z.y), problem.A.matvec(z.x) - problem.b])


@dataclass
class TrustRegionProblem:
    """min g'zhat over {zhat >= lower, |zhat - center| <= radius}.

    ``lower`` entries may be -inf; signs of ``g`` are unrestricted (negative
    components are handled by reflection, they can never bind a lower bound).
    """

    g: np.ndarray
    center: np.ndarray
    lower: np.ndarray
    radius: float

    def __post_init__(self):
        self.g = np.asarray(self.g, dtype=np.float64)
        self.center = np.asarray(self.center, dtype=np.float64)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        if not (self.g.shape == self.center.shape == self.lower.shape):
            raise ValueError("g, center, lower must have matching shapes")
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if np.any(self.lower > self.center):
            raise ValueError("center must satisfy the lower bounds")


def trust_region_minimizer(p):
    """The minimizer of ``p`` from the package's block solver.

    The coordinates with a finite lower bound are the solver's bounded
    block, with cap center - lower; the others are its free block.  The
    minimizer is zhat = max(center - lam g, lower), or, when lam is inf,
    every coordinate with g_i > 0 (and g_i^2 > 0) at its bound and the rest
    at the center.
    """
    bounded = np.isfinite(p.lower)
    g_free = p.g[~bounded]
    lam, _ = solve_linear_trust_region(p.g[bounded], p.center[bounded] - p.lower[bounded],
                                       g_free @ g_free, p.radius)
    if lam == math.inf:
        return np.where((p.g > 0.0) & (p.g * p.g > 0.0), p.lower, p.center)
    return np.maximum(p.center - lam * p.g, p.lower)


def gap_trust_region(problem, z, r):
    """The trust region of the LP gap at z and radius r: objective F(z),
    center z, lower bounds 0 on x (when ``problem.nonneg``) and -inf on y."""
    lower = np.full(problem.n + problem.m, -np.inf)
    if problem.nonneg:
        lower[:problem.n] = 0.0
    return TrustRegionProblem(gradient_field(problem, z), z.as_vector(), lower, r)


def normalized_gap_at(problem, z, r):
    """:func:`restartlp.gap.normalized_gap_lp` at the point z, with the
    gradient blocks c - A'y and Ax - b of :func:`gradient_field`."""
    g = gradient_field(problem, z)
    return normalized_gap_lp(problem, z.x, g[:problem.n], g[problem.n:], r)


class GapBracketError(RuntimeError):
    """The bisection oracle found no sign change: h(mu) > 0 for every mu,
    which can only happen for radius zero."""


def trust_region_bisection(p, lam_tol=1e-13, max_doublings=200):
    """Reference solution of the same trust-region problem by bisection.

    Works on the prox form: zbar(mu) = max(center - g/mu, lower) solves the
    mu-regularized linear model, and h(mu) = |zbar(mu) - center| - r is
    nonincreasing in mu.  A sign-change bracket for h is found by doubling /
    halving, then bisected to relative width ``lam_tol``.  If h stays
    negative down to tiny mu the bound set is within reach and zbar(0+) is
    returned; if h stays positive for huge mu the radius must be zero and
    :class:`GapBracketError` is raised.
    """
    g, z, l, r = p.g, p.center, p.lower, p.radius
    leff = np.where(g < 0.0, -np.inf, l)

    def zbar(mu):
        return np.maximum(z - g / mu, leff)

    def h(mu):
        return float(np.linalg.norm(zbar(mu) - z)) - r

    if not np.any(g != 0.0):
        return z.copy()
    if r == 0.0:
        # h(mu) > 0 for every mu: reported, not inferred
        raise GapBracketError("h(mu) > 0 for all mu: the trust-region radius is zero")

    mu = 1.0
    val = h(mu)
    if val == 0.0:
        return zbar(mu)
    if val < 0.0:
        hi = mu
        for _ in range(max_doublings):
            mu *= 0.5
            if h(mu) > 0.0:
                lo = mu
                break
        else:
            # within reach even as mu -> 0: the all-clamped limit point
            out = z.copy()
            clamped = (g > 0.0) & np.isfinite(leff)
            out[clamped] = leff[clamped]
            return out
    else:
        lo = mu
        for _ in range(max_doublings):
            mu *= 2.0
            if h(mu) <= 0.0:
                hi = mu
                break
        else:
            raise GapBracketError(
                "h(mu) > 0 for all mu: the trust-region radius is zero")

    for _ in range(400):
        mid = 0.5 * (lo + hi)
        if hi - lo <= lam_tol * max(lo, 1e-300):
            break
        if h(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return zbar(0.5 * (lo + hi))


def normalized_gap_bisection(problem, z, r, lam_tol=1e-13):
    """Reference gap evaluation through the prox-form bisection oracle, as
    a float.  An LP's x must be feasible (x >= 0)."""
    if r <= 0:
        raise ValueError("the bisection oracle needs r > 0")
    p = gap_trust_region(problem, z, r)
    zhat = trust_region_bisection(p, lam_tol=lam_tol)
    return max(float(p.g @ (p.center - zhat)) / r, 0.0)


def lagrangian(problem, z):
    """Value of L(x, y) = c'x + b'y - y'Ax."""
    _check_dims(problem, z)
    return float(problem.c @ z.x + problem.b @ z.y - z.y @ problem.A.matvec(z.x))


def affine_project(A, b, point):
    """One-shot Euclidean projection of ``point`` onto {x : Ax = b}."""
    return AffineProjector(A, b).project(np.asarray(point, dtype=np.float64))


def stacked_observe_numpy(blocks, eps, levels, last, hits):
    """:func:`restartlp.bilinear._stacked_observe` as numpy computes it: each
    pending block's test is ``v @ v`` on the block read at its indices in
    ``blocks``, and the average mode's incremental average is updated by
    ufuncs in an array whose norm is ``sqrt(mean @ mean)``.  ``v @ v`` runs
    the BLAS kernel's dot, which may differ from the scalar sum by an ulp,
    so the two hooks agree away from a value that ties with its
    threshold."""
    pending = list(enumerate(blocks[1:]))
    avg_index = blocks[0]
    mean, step = np.empty(4), np.empty(4)

    def observe(t, z, average):
        nonlocal pending
        hit = False
        for i, index in pending:
            v = z[index]
            if float(v @ v) / 4.0 <= eps:
                last[i] = t
                hit = True
        if hit:
            pending = [(i, index) for i, index in pending if last[i] is None]
        if len(hits) < len(levels):
            if t == 1:
                np.copyto(mean, z[avg_index])
            else:
                np.subtract(z[avg_index], mean, out=step)
                np.divide(step, t, out=step)
                np.add(mean, step, out=mean)
            nrm = math.sqrt(float(mean @ mean))
            while len(hits) < len(levels) and nrm <= levels[len(hits)]:
                hits.append(t)
        return not pending and len(hits) == len(levels)

    return observe


def _block_data(problem, tau, sigma):
    """tau A, -sigma A, tau c and sigma b, for scalars tau and sigma."""
    A = problem.A
    return A.times(tau), A.times(-sigma), tau * problem.c, sigma * problem.b


def pdhg_by_blocks(problem, z, tau, sigma):
    """One PDHG step with each block started by its own ufunc:
    x+ = max((x - tau c) + tau A'y, 0), y+ = (y + sigma b) - sigma A (2 x+ - x).
    Returns [x+; y+]."""
    tau_A, neg_sigma_A, tau_c, sigma_b = _block_data(problem, tau, sigma)
    x1 = np.subtract(z.x, tau_c)
    tau_A.rmatvec(z.y, x1)
    if problem.nonneg:
        np.maximum(x1, 0.0, out=x1)
    y1 = np.add(z.y, sigma_b)
    neg_sigma_A.matvec(np.subtract(np.add(x1, x1), z.x), y1)
    return np.concatenate([x1, y1])


def egm_four_products(problem, z, tau, sigma):
    """One extragradient step through four products, one with A or A' each:
    zhat from z, then z+ from zhat.  Returns ([x+; y+], [xhat; yhat])."""
    tau_A, neg_sigma_A, tau_c, sigma_b = _block_data(problem, tau, sigma)

    def half_step(x, y):
        x1 = np.subtract(z.x, tau_c)
        tau_A.rmatvec(y, x1)
        if problem.nonneg:
            np.maximum(x1, 0.0, out=x1)
        y1 = np.add(z.y, sigma_b)
        neg_sigma_A.matvec(x, y1)
        return x1, y1

    xh, yh = half_step(z.x, z.y)
    return np.concatenate(half_step(xh, yh)), np.concatenate([xh, yh])


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


@dataclass
class EpochRecord:
    outer: int
    distance: float
    bound: float
    ok: bool


@dataclass
class RateCheckReport:
    tstar: int
    alpha: float
    fixed_epochs: list
    fixed_ok: bool
    adaptive_lengths: list
    adaptive_ok: bool


def _method_norm(config):
    # PDHG's guarantee is in its M-norm, ADMM's in its semi-norm, EGM's and
    # PPM's in the Euclidean norm
    if config.method == PDHG:
        return NormSpec.pdhg(config.eta, config.omega)
    if config.method == ADMM:
        return NormSpec.admm(config.eta)
    return NormSpec.euclidean()


def theoretical_linear_rate_check(problem, optimum, config, beta=DEFAULT_BETA,
                                  alpha=None, epochs=20, z0=None):
    """Check the restart theory on an instance with known sharpness.

    Intended for diagonal bilinear problems, where the sharpness constant is
    the smallest interaction coefficient and the solution set is the origin.
    Runs fixed-frequency restarts at t* and asserts the geometric decay of
    anchor distances in the method norm, then runs adaptive restarts and
    asserts every restart length from the second epoch on is at most t*.
    Failures are returned as per-epoch records, not raised.
    """
    if alpha is None:
        raise ValueError("alpha (sharpness constant) is required")
    tstar = fixed_frequency_tstar(config.sufficient_decay_c,
                                  config.target_proximity_q, alpha, beta)
    norm = _method_norm(config)
    opt_vec = optimum.as_vector()

    def dist_to_opt(vec):
        z = SaddlePoint.over(vec - opt_vec, problem.n)
        return norm_value(norm, problem, z)

    fixed_opts = SolveOptions(
        step=config,
        scheme=RestartScheme.fixed(tstar),
        kkt_tol=0.0,
        iteration_limit=(epochs + 1) * tstar,
        check_cadence=1,
    )
    res_fixed = run_restarted(problem, fixed_opts, z0=z0)
    d0 = dist_to_opt(res_fixed.anchors[0])
    records = []
    all_ok = True
    for nidx, anchor in enumerate(res_fixed.anchors):
        bound = (beta ** nidx) * d0 * (1.0 + 1e-6)
        dist = dist_to_opt(anchor)
        ok = dist <= bound
        all_ok = all_ok and ok
        records.append(EpochRecord(nidx, dist, bound, ok))

    adapt_opts = SolveOptions(
        step=config,
        scheme=RestartScheme.adaptive(beta=beta),
        kkt_tol=0.0,
        iteration_limit=epochs * tstar,
        check_cadence=1,
    )
    res_adapt = run_restarted(problem, adapt_opts, z0=z0)
    lengths = [rec.inner for rec in res_adapt.trace.records if rec.restarted]
    adaptive_ok = all(length <= tstar for length in lengths[1:])

    return RateCheckReport(
        tstar=tstar,
        alpha=alpha,
        fixed_epochs=records,
        fixed_ok=all_ok,
        adaptive_lengths=lengths,
        adaptive_ok=adaptive_ok,
    )


# ---------------------------------------------------------------------------
# Closed-form algebra of one diagonal bilinear PDHG block
# ---------------------------------------------------------------------------


def _check_block(sigma, eta):
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0 < eta <= 1.0 / sigma:
        raise ValueError("need 0 < eta <= 1/sigma")


def dynamics_matrix(sigma, eta):
    """The 2x2 update matrix of one PDHG step on the (x_i, y_i) block."""
    _check_block(sigma, eta)
    a = eta * sigma
    return np.array([[1.0, -a], [a, 1.0 - 2.0 * a * a]])


def b_metric_matrix(sigma, eta):
    """The eigenbasis metric B with (1/3)|v|^2 <= v'Bv <= |v|^2 for
    eta <= 1/(2 sigma)."""
    _check_block(sigma, eta)
    a = eta * sigma
    s2 = 1.0 - a * a
    if s2 <= 0:
        raise ValueError("B is defined for eta < 1/sigma")
    return np.array([[1.0, -a], [-a, 1.0]]) / (2.0 * s2)


def b_norm_sq(v, sigma, eta):
    v = np.asarray(v, dtype=np.float64)
    B = b_metric_matrix(sigma, eta)
    return float(v @ (B @ v))


@dataclass(frozen=True)
class SpectralBlock:
    """Spectral data of one coordinate block of the PDHG dynamics."""

    sigma: float
    eta: float

    def __post_init__(self):
        _check_block(self.sigma, self.eta)

    @property
    def dynamics(self):
        return dynamics_matrix(self.sigma, self.eta)

    @property
    def b_metric(self):
        return b_metric_matrix(self.sigma, self.eta)

    @property
    def eigenvalue_modulus_sq(self):
        a = self.eta * self.sigma
        return 1.0 - a * a

    @property
    def eigenvalues(self):
        """The conjugate pair as (real, +/- imaginary) parts."""
        a = self.eta * self.sigma
        re = 1.0 - a * a
        im = a * math.sqrt(max(1.0 - a * a, 0.0))
        return re, im

    @property
    def one_minus_eigenvalue_abs(self):
        """|1 - gamma|, which equals eta * sigma."""
        re, im = self.eigenvalues
        return math.hypot(1.0 - re, im)


def theoretical_B_norm_decay(z0, sigma, eta, t):
    """Exact B-norm-squared of the iterate after t steps:
    (1 - eta^2 sigma^2)^t |z0|_B^2."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    a = eta * sigma
    return (1.0 - a * a) ** t * b_norm_sq(z0, sigma, eta)


def theoretical_average_bound(z0, sigma, eta, K):
    """Two-sided envelope (upper, lower) for the B-norm of the K-step
    running average of the block iterates.

    upper = 2 |z0|_B / (K eta sigma)
    lower = (sqrt(3)/2) eta sigma |z0|_B / (2 + K eta^2 sigma^2)

    Both hold for every K >= 1 when eta sigma <= 1/2; they only meet (up to
    constants) once K is of order 1/(eta sigma)^2.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    a = eta * sigma
    nb = math.sqrt(b_norm_sq(z0, sigma, eta))
    upper = 2.0 * nb / (K * a)
    lower = (math.sqrt(3.0) / 2.0) * a * nb / (2.0 + K * a * a)
    return upper, lower
