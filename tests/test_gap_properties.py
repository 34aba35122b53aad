"""Property tests of the block trust-region solver against the bisection
oracle, over the cases its closed form treats apart: zero gradient
entries, bounded coordinates already at their bound (breakpoint 0),
gradients whose squares underflow, a whole bound set within reach, and
problems with no bounded or no free coordinate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from restartlp import solve_linear_trust_region

from oracles import TrustRegionProblem, trust_region_bisection, trust_region_minimizer

# |g| of 1e-200 .. 1e-165 squares to 0.0
_MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(1e-200, 1e-165))
_GRADIENT = st.builds(lambda m, s: m * s, _MAGNITUDE, st.sampled_from((-1.0, 1.0)))
# cap 0: a bounded coordinate at its bound
_CAP = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
SHAPES = ("mixed", "all-bounded", "all-free", "within-reach")


@st.composite
def block_problems(draw):
    """(g_bound, cap, g_free, center_free, radius) of one shape."""
    shape = draw(st.sampled_from(SHAPES))
    nb = 0 if shape == "all-free" else draw(st.integers(1, 10))
    nf = 0 if shape == "all-bounded" else draw(st.integers(0 if nb else 1, 10))
    g_bound = np.array(draw(st.lists(_GRADIENT, min_size=nb, max_size=nb)))
    cap = np.array(draw(st.lists(_CAP, min_size=nb, max_size=nb)))
    g_free = np.array(draw(st.lists(_GRADIENT, min_size=nf, max_size=nf)))
    center_free = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=nf, max_size=nf)))
    radius = draw(st.floats(1e-3, 1e3))
    if shape == "within-reach":
        # nothing moves but toward a bound, and every bound is within reach
        g_bound = np.abs(g_bound)
        g_free = np.zeros(nf)
        radius = float(np.linalg.norm(cap)) * draw(st.floats(1.0, 4.0)) + 1e-3
    return g_bound.reshape(nb), cap.reshape(nb), g_free.reshape(nf), center_free.reshape(nf), radius


def _stacked(g_bound, cap, g_free, center_free, radius):
    """The same problem as one TrustRegionProblem: bounded coordinates at
    center cap above a lower bound of 0, then the free ones."""
    return TrustRegionProblem(np.concatenate([g_bound, g_free]),
                              np.concatenate([cap, center_free]),
                              np.concatenate([np.zeros(cap.size), np.full(g_free.size, -np.inf)]),
                              radius)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(block_problems())
def test_block_solver_matches_bisection(case):
    g_bound, cap, g_free, center_free, radius = case
    lam, decrease = solve_linear_trust_region(g_bound, cap, float(g_free @ g_free), radius)
    p = _stacked(*case)
    slow = trust_region_bisection(p)
    ref = float(p.g @ (p.center - slow))
    tol = 1e-9 * max(1.0, abs(ref))
    assert abs(decrease - ref) <= tol
    assert lam >= 0.0
    # the minimizer built from lam is feasible and attains the decrease
    fast = trust_region_minimizer(p)
    assert np.linalg.norm(fast - p.center) <= radius * (1 + 1e-9)
    assert np.all(fast >= p.lower)
    assert abs(float(p.g @ (p.center - fast)) - decrease) <= tol


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(block_problems())
def test_within_reach_is_lam_inf(case):
    g_bound, cap, g_free, center_free, radius = case
    if np.any(g_bound < 0.0) or np.any(g_free * g_free > 0.0):
        return
    reach = float(np.linalg.norm(cap[g_bound > 0.0]))
    if reach >= radius or not np.any((g_bound > 0.0) & (cap > 0.0)):
        return
    lam, decrease = solve_linear_trust_region(g_bound, cap, float(g_free @ g_free), radius)
    assert lam == np.inf
    clamped = float(g_bound[g_bound > 0.0] @ cap[g_bound > 0.0])
    assert abs(decrease - clamped) <= 1e-12 * clamped
