"""Normalized duality gap evaluation.

The gap at radius r around z is the largest Lagrangian gap attainable inside
the radius-r ball intersected with the feasible set, divided by r.  For the
bilinear LP Lagrangian the inner maximization is a trust-region problem with
a linear objective.  Its coordinates fall in two blocks: a bounded block
that may move down by at most its cap (an LP's x, which stays >= 0: cap x)
and a free block (an LP's y), which enters the solution only through the
squared norm of its gradient.  :func:`solve_linear_trust_region` solves that
block form exactly from the sorted breakpoints of the bounded coordinates
that can reach their bound.  A restart checkpoint reads the gap alone,
through one of two adapters over it: :func:`normalized_gap_lp`, from the
gradient blocks the checkpoint has at hand, and :func:`normalized_gap_admm`
for an ADMM point.  The tests check the solver against a slow reference
that bisects the prox-regularized subproblem instead, and build the
maximizer from its step length (``tests/oracles.py``); the two share
nothing but the problem statement.
"""

from __future__ import annotations

import math

import numpy as np

from .lp_core import _dot, _norm

__all__ = ["solve_linear_trust_region", "normalized_gap_lp", "normalized_gap_admm"]

_EMPTY = np.empty(0)
_EMPTY.flags.writeable = False


def solve_linear_trust_region(g_bound, cap, free_sq, radius):
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
    free_sq = float(free_sq) + _dot(away, away)
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
            free_sq += _dot(g[k:], g[k:])
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
        return math.inf, _dot(g[:j], c[:j])
    lam = math.sqrt(max(r2 - f_lo, 0.0) / f_hi)
    return lam, _dot(g[:j], c[:j]) + lam * f_hi


# ---------------------------------------------------------------------------
# Normalized duality gaps
# ---------------------------------------------------------------------------


def normalized_gap_lp(problem, x, g_x, g_y, r):
    """The normalized duality gap of the LP saddle point (x, y) at radius
    r > 0 in the Euclidean norm, as a float, from the gradient blocks
    g_x = c - A'y and g_y = Ax - b.

    The maximization runs over the trust region around (x, y) with lower
    bounds (0, -inf): x is the bounded block (cap x) of
    :func:`solve_linear_trust_region` when ``problem.nonneg``, otherwise
    both blocks are free.  Beyond the products that form the blocks the
    cost is linear in n + m.  Neither x nor the blocks are checked or
    copied.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if problem.nonneg:
        _, decrease = solve_linear_trust_region(g_x, x, _dot(g_y, g_y), r)
    else:
        _, decrease = solve_linear_trust_region(_EMPTY, _EMPTY,
                                                _dot(g_x, g_x) + _dot(g_y, g_y), r)
    return max(decrease / r, 0.0)


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
    if _norm(res) > 1e-6 * (1.0 + _norm(problem.b)):
        raise ValueError("ADMM gap needs x_U feasible for {Ax = b}")

    se = math.sqrt(eta)
    g_u = y + problem.c
    g_u /= se
    cap = se * x_v
    g_w = x_u - x_v
    g_w *= se
    _, decrease = solve_linear_trust_region(g_u, cap, _dot(g_w, g_w), r)
    return max(decrease / r, 0.0)
