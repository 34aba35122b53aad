"""Normalized duality gap evaluation.

The gap at radius r around z is the largest Lagrangian gap attainable inside
the radius-r ball intersected with the feasible set, divided by r.  For the
bilinear LP Lagrangian the inner maximization is a trust-region problem with
a linear objective.  Its coordinates fall in two blocks: a bounded block
that may move down by at most its cap (an LP's x, which stays >= 0: cap x)
and a free block (an LP's y), which enters the solution only through the
squared norm of its gradient.  :func:`solve_block_trust_region` solves that
block form exactly from the sorted breakpoints of the bounded coordinates
that can reach their bound.  A restart checkpoint reads the gap alone
through two adapters over it: :func:`lp_gap`, from the gradient blocks the
checkpoint has at hand, and :func:`normalized_gap_admm` for an ADMM point.
:func:`solve_linear_trust_region` and :func:`normalized_gap_lp`, which also
return the maximizer, are read only by the tests and by the benchmark's span
tracer, which binds them by name; they stay until the tracer times the
checkpoint's own entry points.  The tests check the solver against a
slow reference that bisects the prox-regularized subproblem instead
(``tests/oracles.py``); the two share nothing but the problem statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lp_core import SaddlePoint, _check_dims

__all__ = [
    "TrustRegionProblem",
    "GapResult",
    "solve_block_trust_region",
    "solve_linear_trust_region",
    "lp_gap",
    "normalized_gap_lp",
    "normalized_gap_admm",
]

_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


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


def solve_block_trust_region(g_bound, cap, free_sq, radius):
    """Exact solution of the block trust region

        min g_bound'u + g_free'w  over  u >= -cap, |u|^2 + |w|^2 <= radius^2

    given ``g_bound`` and ``cap`` (>= 0) of the bounded block u and only
    ``free_sq`` = |g_free|^2 of the free block w.  Returns ``(lam, decrease)``:
    the minimizer is u = max(-lam g_bound, -cap), w = -lam g_free, and
    ``decrease`` is minus the minimum, sum_i g_i min(lam g_i, cap_i) over the
    bounded block plus lam |g_free|^2.

    A bounded coordinate with g_i > 0 and cap_i > 0 stops at its breakpoint
    cap_i / g_i; one with g_i <= 0 never stops, and one with cap_i = 0
    never moves.  At the sorted breakpoints the squared step length is a
    cumulative sum of the stopped caps^2 plus lam^2 times the g^2 still
    moving, nondecreasing in lam; one binary search finds the two
    breakpoints lam lies between, and lam solves the quadratic there.  The
    work is linear in the length of the blocks plus one sort of the
    breakpoints of the coordinates that can stop.

    lam is inf when the ball constraint never becomes tight: every
    coordinate still moving stops at its bound within the radius.  A
    gradient entry whose square underflows to 0.0 counts as not moving
    then: the step holds the stopped coordinates, the rest stay put, and
    the decrease counts the stopped ones only.
    """
    # coordinates whose bound is ahead of them, at a breakpoint > 0 (index
    # arrays and take: numpy's boolean indexing is several times slower)
    movable = ((g_bound > 0.0) & (cap > 0.0)).nonzero()[0]
    # coordinates moving away from their bound never stop
    away = np.minimum(g_bound, 0.0)
    free_sq = float(free_sq) + float(away @ away)
    g, c = g_bound.take(movable), cap.take(movable)
    r2 = radius * radius
    if movable.size:
        # a breakpoint that overflows is never reached at a finite lam
        with np.errstate(over="ignore"):
            lams = c / g
        order = np.argsort(lams)
        lams = lams[order]
        g, c = g[order], c[order]
        k = int(np.searchsorted(lams, np.inf))
        if k < lams.size:
            free_sq += float(g[k:] @ g[k:])
            lams, g, c = lams[:k], g[:k], c[:k]
        stopped_sq = np.cumsum(c * c)
        # moving_sq[j]: the g^2 still moving at lam < lams[j]
        moving_sq = np.empty(k + 1)
        moving_sq[-1] = 0.0
        np.cumsum((g * g)[::-1], out=moving_sq[-2::-1])
        moving_sq += free_sq
        # the squared step length at each breakpoint, with lams[j]^2 taken
        # as (lams[j] sqrt(moving))^2 so that an overflow reads inf, not nan
        with np.errstate(over="ignore"):
            reach = lams * np.sqrt(moving_sq[1:])
            dist_sq = stopped_sq + reach * reach
        j = int(np.searchsorted(dist_sq, r2))
        f_lo = float(stopped_sq[j - 1]) if j else 0.0
        f_hi = float(moving_sq[j])
    else:
        j, f_lo, f_hi = 0, 0.0, free_sq
    if f_hi <= 0.0:
        # every coordinate still moving has a gradient that squares to 0.0
        return math.inf, float(g[:j] @ c[:j])
    lam = math.sqrt(max(r2 - f_lo, 0.0) / f_hi)
    return lam, float(g[:j] @ c[:j]) + lam * f_hi


def solve_linear_trust_region(p):
    """Exact minimizer of a linear objective over ball-with-lower-bounds.

    The coordinates with a finite lower bound are the bounded block of
    :func:`solve_block_trust_region`, with cap center - lower; the others
    are its free block.  The solution is zhat = max(center - lam g, lower),
    or, when lam is inf, every coordinate with g_i > 0 at its bound and the
    rest at the center (a g_i whose square underflows counts as 0).
    """
    bounded = np.isfinite(p.lower)
    g_free = p.g[~bounded]
    lam, _ = solve_block_trust_region(p.g[bounded], p.center[bounded] - p.lower[bounded],
                                      g_free @ g_free, p.radius)
    return _stepped(p.center, p.g, lam, p.lower)


def _stepped(center, g, lam, lower=None):
    """The minimizer center - lam g of :func:`solve_block_trust_region`,
    clipped at ``lower`` if given.  At lam = inf every g_i that squares to
    a nonzero value belongs to a bounded coordinate with g_i > 0, which sits
    at its bound; the rest stay at the center."""
    if lam == math.inf:
        if lower is None:
            return center.copy()
        return np.where((g > 0.0) & (g * g > 0.0), lower, center)
    out = center - lam * g
    return out if lower is None else np.maximum(out, lower, out=out)


# ---------------------------------------------------------------------------
# Normalized duality gaps
# ---------------------------------------------------------------------------


@dataclass
class GapResult:
    """Normalized duality gap value with the attaining point."""

    rho: float
    maximizer: SaddlePoint


def _check_feasible_x(problem, x):
    if problem.nonneg and x.size and float(np.min(x)) < -1e-9 * (1.0 + float(np.max(np.abs(x)))):
        raise ValueError("gap evaluation requires a feasible point (x >= 0)")


def lp_gap(problem, x, g_x, g_y, r):
    """``(lam, rho)``: the normalized duality gap rho of the LP saddle point
    (x, y) at radius r > 0 in the Euclidean norm, and its step length, from
    the gradient blocks g_x = c - A'y and g_y = Ax - b.

    x is the bounded block (cap x) when ``problem.nonneg``; otherwise both
    blocks are free.  The maximizer is (x - lam g_x, y - lam g_y), x clipped
    at 0 (see :func:`normalized_gap_lp`).  Neither x nor the blocks are
    checked or copied.
    """
    if problem.nonneg:
        lam, decrease = solve_block_trust_region(g_x, x, g_y @ g_y, r)
    else:
        lam, decrease = solve_block_trust_region(_EMPTY, _EMPTY,
                                                 float(g_x @ g_x) + float(g_y @ g_y), r)
    return lam, max(decrease / r, 0.0)


def normalized_gap_lp(problem, z, r):
    """Normalized duality gap of an LP saddle point in the Euclidean norm.

    Reduces to a linear trust-region problem with objective F(z), lower
    bounds (0, -inf), center z (:func:`lp_gap`); beyond the products Ax
    and A'y the cost is linear in n + m.  For r = 0 the closed-form limit
    |F(z)| is returned, which is only valid (and only allowed) on
    unconstrained bilinear problems.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    _check_dims(problem, z)
    _check_feasible_x(problem, z.x)
    aty = problem.A.rmatvec(z.y)
    ax = problem.A.matvec(z.x)
    g_x, g_y = problem.c - aty, ax - problem.b
    if r == 0.0:
        if problem.nonneg:
            raise ValueError("rho_0 is only exposed for unconstrained bilinear "
                             "problems, where it equals |F(z)|")
        return GapResult(float(np.linalg.norm(np.concatenate([g_x, g_y]))), z.copy())
    lam, rho = lp_gap(problem, z.x, g_x, g_y, r)
    x_hat = _stepped(z.x, g_x, lam, 0.0 if problem.nonneg else None)
    return GapResult(rho, SaddlePoint(x_hat, _stepped(z.y, g_y, lam)))


def normalized_gap_admm(problem, point, r, eta):
    """Normalized duality gap of an ADMM point in its (semi-)norm, as a
    float.

    The supremum of -(y+c)'(xhat_V - x_V) + (x_V - x_U)'(yhat - y) over
    {xhat_V >= 0, eta |x_V - xhat_V|^2 + |y - yhat|^2/eta <= r^2} becomes a
    Euclidean block trust region after u = sqrt(eta)(xhat_V - x_V),
    w = (yhat - y)/sqrt(eta): u is the bounded block, with gradient
    (y + c)/sqrt(eta) and cap sqrt(eta) x_V, w the free block, with
    gradient sqrt(eta)(x_U - x_V), both centred at 0.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if not eta > 0:
        raise ValueError("eta must be positive")
    x_v, x_u, y = point.x_v, point.x_u, point.y
    if x_v.size and float(np.min(x_v)) < -1e-9 * (1.0 + float(np.max(np.abs(x_v)))):
        raise ValueError("ADMM gap needs x_V >= 0")
    res = problem.A.matvec(x_u) - problem.b
    if np.linalg.norm(res) > 1e-6 * (1.0 + np.linalg.norm(problem.b)):
        raise ValueError("ADMM gap needs x_U feasible for {Ax = b}")

    se = math.sqrt(eta)
    g_u = y + problem.c
    g_u /= se
    cap = se * x_v
    g_w = x_u - x_v
    g_w *= se
    _, decrease = solve_block_trust_region(g_u, cap, g_w @ g_w, r)
    return max(decrease / r, 0.0)
