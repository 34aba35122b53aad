"""Reference oracles that exist only to validate the package.

* :class:`KktSystem` / :func:`kkt_error` -- the LP optimality conditions as
  one explicit stacked system K z >= h, against which the matrix-free
  :func:`restartlp.lp_core.residuals` is checked.
* :func:`trust_region_bisection` / :func:`normalized_gap_bisection` -- a slow
  trust-region solve that bisects the scalar equation |zbar(mu) - z| = r of
  the prox-regularized subproblem, against which the closed-form
  :func:`restartlp.gap.solve_block_trust_region` (through its adapters)
  is checked.
* :func:`lagrangian` -- the value L(x, y) = c'x + b'y - y'Ax, from which
  the tests form primal-dual gaps at probe points.
* :func:`affine_project` -- a one-shot projection onto {x : Ax = b}
  through a fresh :class:`restartlp.steps.AffineProjector`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from restartlp.gap import GapResult, TrustRegionProblem, _check_feasible_x
from restartlp.lp_core import Residuals, SaddlePoint, SparseMatrix, _check_dims, gradient_field
from restartlp.steps import PROJECTION_TOL, AffineProjector


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
    """Reference gap evaluation through the prox-form bisection oracle."""
    if r <= 0:
        raise ValueError("the bisection oracle needs r > 0")
    _check_feasible_x(problem, z.x)
    g = gradient_field(problem, z)
    lower = np.full(problem.n + problem.m, -np.inf)
    if problem.nonneg:
        lower[:problem.n] = 0.0
    zvec = z.as_vector()
    zhat = trust_region_bisection(TrustRegionProblem(g, zvec, lower, r), lam_tol=lam_tol)
    rho = max(float(g @ (zvec - zhat)) / r, 0.0)
    return GapResult(rho, SaddlePoint.from_vector(zhat, problem.n), r)


def lagrangian(problem, z):
    """Value of L(x, y) = c'x + b'y - y'Ax."""
    _check_dims(problem, z)
    return float(problem.c @ z.x + problem.b @ z.y - z.y @ problem.A.matvec(z.x))


def affine_project(A, b, point, tol=PROJECTION_TOL):
    """One-shot Euclidean projection of ``point`` onto {x : Ax = b}."""
    return AffineProjector(A, b, tol=tol).project(np.asarray(point, dtype=np.float64))
