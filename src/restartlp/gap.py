"""Normalized duality gap evaluation.

The gap at radius r around z is the largest Lagrangian gap attainable inside
the radius-r ball intersected with the feasible set, divided by r.  For the
bilinear LP Lagrangian the inner maximization is a trust-region problem with
a linear objective and lower bounds, which :func:`solve_linear_trust_region`
solves exactly, in worst-case linear time, by repeated median partitioning
of the bound-hitting breakpoints.  The tests check it against a slow
reference that bisects the prox-regularized subproblem instead
(``tests/oracles.py``); the two share nothing but the problem statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp_core import SaddlePoint, gradient_field

__all__ = [
    "TrustRegionProblem",
    "GapResult",
    "solve_linear_trust_region",
    "normalized_gap_lp",
    "normalized_gap_admm",
]


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


def solve_linear_trust_region(p):
    """Exact minimizer of a linear objective over ball-with-lower-bounds.

    The solution has the form zhat(lam) = max(center - lam g, lower) for the
    lam >= 0 at which the ball constraint becomes tight (or lam = inf when
    the whole bound set is within reach).  lam is located by repeatedly
    taking the exact median of the remaining breakpoints lamhat_i =
    (center_i - lower_i)/g_i, so total work is linear in the dimension.
    """
    g, z, l, r = p.g, p.center, p.lower, p.radius
    active = g != 0.0

    # reflect descent coordinates: for g_i < 0 the lower bound can never bind
    leff = np.where(g < 0.0, -np.inf, l)
    gp = np.abs(g)

    with np.errstate(invalid="ignore"):
        cap = z - leff                       # inf where unbounded
    # breakpoints; inactive coordinates never move
    lamhat = np.full(g.shape, np.inf)
    finite = active & np.isfinite(leff)
    lamhat[finite] = cap[finite] / gp[finite]

    # whole bound set within reach (requires every active coord bounded)
    if not np.any(active & ~np.isfinite(leff)):
        reach = float(np.linalg.norm(cap[finite]))
        if reach <= r:
            zhat = z.copy()
            zhat[finite] = leff[finite]
            return zhat

    r2 = r * r
    f_lo = 0.0
    f_hi = float(np.sum(gp[active & ~np.isfinite(lamhat)] ** 2))
    work = np.nonzero(active & np.isfinite(lamhat) & (lamhat > 0.0))[0]

    gsq = gp * gp
    capsq = np.where(np.isfinite(cap), cap, 0.0) ** 2

    while work.size:
        lams = lamhat[work]
        k = (lams.size - 1) // 2
        lam_med = float(np.partition(lams, k)[k])
        moved = np.minimum(lam_med * gp[work], cap[work])
        f_mid = f_lo + lam_med * lam_med * f_hi + float(moved @ moved)
        if f_mid < r2:
            clamp = lams <= lam_med
            f_lo += float(np.sum(capsq[work[clamp]]))
            work = work[~clamp]
        else:
            free = lams >= lam_med
            f_hi += float(np.sum(gsq[work[free]]))
            work = work[~free]

    if f_hi <= 0.0:
        # every movable coordinate clamps at its bound before the radius is
        # spent (hairline of the within-reach case under rounding)
        zhat = z.copy()
        zhat[finite] = leff[finite]
        return zhat
    lam = math.sqrt(max(r2 - f_lo, 0.0) / f_hi)
    return np.maximum(z - lam * g, leff)


# ---------------------------------------------------------------------------
# Normalized duality gaps
# ---------------------------------------------------------------------------


@dataclass
class GapResult:
    """Normalized duality gap value with the attaining point."""

    rho: float
    maximizer: SaddlePoint
    radius_used: float


def _lp_gap_pieces(problem, z, ax=None, aty=None):
    g = gradient_field(problem, z, ax=ax, aty=aty)
    n, m = problem.n, problem.m
    lower = np.full(n + m, -np.inf)
    if problem.nonneg:
        lower[:n] = 0.0
    return g, lower


def _check_feasible_x(problem, x):
    if problem.nonneg and x.size and float(np.min(x)) < -1e-9 * (1.0 + float(np.max(np.abs(x)))):
        raise ValueError("gap evaluation requires a feasible point (x >= 0)")


def normalized_gap_lp(problem, z, r, ax=None, aty=None):
    """Normalized duality gap of an LP saddle point in the Euclidean norm.

    Reduces to a linear trust-region problem with objective F(z), lower
    bounds (0, -inf), center z; beyond the cached products Ax and A'y the
    cost is linear in n + m.  For r = 0 the closed-form limit |F(z)| is
    returned, which is only valid (and only allowed) on unconstrained
    bilinear problems.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    _check_feasible_x(problem, z.x)
    g, lower = _lp_gap_pieces(problem, z, ax=ax, aty=aty)
    if r == 0.0:
        if problem.nonneg:
            raise ValueError("rho_0 is only exposed for unconstrained bilinear "
                             "problems, where it equals |F(z)|")
        return GapResult(float(np.linalg.norm(g)), z.copy(), 0.0)
    zvec = z.as_vector()
    zhat = solve_linear_trust_region(TrustRegionProblem(g, zvec, lower, r))
    rho = max(float(g @ (zvec - zhat)) / r, 0.0)
    return GapResult(rho, SaddlePoint.from_vector(zhat, problem.n), r)


def normalized_gap_admm(problem, state, r, eta):
    """Normalized duality gap of an ADMM state in its (semi-)norm.

    The supremum of -(y+c)'(xhat_V - x_V) + (x_V - x_U)'(yhat - y) over
    {xhat_V >= 0, eta |x_V - xhat_V|^2 + |y - yhat|^2/eta <= r^2} becomes a
    Euclidean trust-region problem after u = sqrt(eta)(xhat_V - x_V),
    w = (yhat - y)/sqrt(eta).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if not eta > 0:
        raise ValueError("eta must be positive")
    x_v, x_u, y = state.x_v, state.x_u, state.y
    if x_v.size and float(np.min(x_v)) < -1e-9 * (1.0 + float(np.max(np.abs(x_v)))):
        raise ValueError("ADMM gap needs x_V >= 0")
    res = problem.A.matvec(x_u) - problem.b
    if np.linalg.norm(res) > 1e-6 * (1.0 + np.linalg.norm(problem.b)):
        raise ValueError("ADMM gap needs x_U feasible for {Ax = b}")

    se = math.sqrt(eta)
    n = problem.n
    # minimize g'(u, w): u-part (y + c)/sqrt(eta), w-part sqrt(eta)(x_U - x_V)
    g = np.concatenate([(y + problem.c) / se, se * (x_u - x_v)])
    lower = np.concatenate([-se * x_v, np.full(y.size, -np.inf)])
    sol = solve_linear_trust_region(
        TrustRegionProblem(g, np.zeros(n + y.size), lower, r))
    rho = max(-float(g @ sol) / r, 0.0)
    maximizer = SaddlePoint(x_v + sol[:n] / se, y + se * sol[n:])
    return GapResult(rho, maximizer, r)
