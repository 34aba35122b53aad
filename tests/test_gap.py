import math

import numpy as np
import pytest

from restartlp import (
    DiagonalBilinear,
    RandomLpKnownOptimum,
    SaddlePoint,
    StepConfig,
    generate,
    normalized_gap_admm,
    residuals,
)
from restartlp.steps import ADMM, AdmmOperators, AdmmPoint, AffineProjector, admm_step

from conftest import feasible_point
from oracles import (GapBracketError, TrustRegionProblem, gap_trust_region, gradient_field,
                     normalized_gap_at, normalized_gap_bisection, trust_region_bisection,
                     trust_region_minimizer)

INF = np.inf


def random_tr_problem(rng, max_dim=200):
    dim = int(rng.integers(1, max_dim + 1))
    z = rng.standard_normal(dim) * 2.0
    g = rng.standard_normal(dim)
    g[rng.random(dim) < 0.15] = 0.0
    l = np.where(rng.random(dim) < 0.5,
                 z - np.abs(rng.standard_normal(dim)), -INF)
    r = float(np.abs(rng.standard_normal())) * 2.0 + 1e-8
    return TrustRegionProblem(g, z, l, r)


class TestTrustRegion:
    def test_unconstrained_ball_minimizer(self):
        p = TrustRegionProblem([1.0, 1.0], [0.0, 0.0], [-INF, -INF], 1.0)
        out = trust_region_minimizer(p)
        assert np.allclose(out, [-1 / math.sqrt(2)] * 2)

    def test_bound_set_within_radius(self):
        p = TrustRegionProblem([1.0], [0.5], [0.0], 1.0)
        assert trust_region_minimizer(p) == pytest.approx([0.0])

    def test_mixed_bounds_hand_value(self):
        # lam = 0.2: first coordinate clamps at 0, second moves to 0.2
        p = TrustRegionProblem([3.0, 4.0], [1.0, 1.0], [0.0, -INF], 1.0)
        out = trust_region_minimizer(p)
        assert np.allclose(out, [0.4, 0.2], atol=1e-12)

    def test_zero_radius_returns_center(self):
        p = TrustRegionProblem([1.0, -2.0], [3.0, 1.0], [0.0, -INF], 0.0)
        assert np.allclose(trust_region_minimizer(p), [3.0, 1.0])

    def test_matches_oracle_random(self, rng):
        for _ in range(300):
            p = random_tr_problem(rng, max_dim=60)
            fast = trust_region_minimizer(p)
            slow = trust_region_bisection(
                TrustRegionProblem(p.g, p.center, p.lower, p.radius))
            ref = float(p.g @ slow)
            assert float(p.g @ fast) <= ref + 1e-9 * max(1.0, abs(ref))
            assert abs(float(p.g @ fast) - ref) <= 1e-9 * max(1.0, abs(ref))
            assert np.linalg.norm(fast - p.center) <= p.radius * (1 + 1e-9)
            assert np.all(fast >= np.where(np.isfinite(p.lower), p.lower, -INF) - 1e-12)

    def test_beats_random_probes(self, rng):
        for _ in range(30):
            p = random_tr_problem(rng, max_dim=40)
            best = float(p.g @ trust_region_minimizer(p))
            leff = np.where(p.g < 0, -INF, p.lower)
            dirs = rng.standard_normal((2000, p.g.size))
            dirs *= (p.radius * rng.random((2000, 1)) ** (1.0 / p.g.size)
                     / np.linalg.norm(dirs, axis=1, keepdims=True))
            probes = np.maximum(p.center + dirs, leff)
            vals = probes @ p.g
            assert best <= float(np.min(vals)) + 1e-9

    def test_oracle_reports_zero_radius(self):
        with pytest.raises(GapBracketError):
            trust_region_bisection(TrustRegionProblem([1.0], [5.0], [-INF], 0.0))

    def test_oracle_lam_zero_branch(self):
        # radius exceeds the distance to the clamp point: bound set returned
        p = TrustRegionProblem([1.0, 2.0], [1.0, 1.0], [0.0, 0.5], 10.0)
        out = trust_region_bisection(p)
        assert np.allclose(out, [0.0, 0.5])
        assert np.allclose(trust_region_minimizer(p), [0.0, 0.5])


class TestNormalizedGapLp:
    def test_bilinear_equals_gradient_norm(self):
        problem, _ = generate(DiagonalBilinear((1.0,)))
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))
        for r in (0.01, 0.5, 2.0, 100.0):
            assert normalized_gap_at(problem, z, r) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_zero_at_optimum(self):
        problem, opt = generate(RandomLpKnownOptimum(6, 12, 0.5, 3))
        for r in (0.1, 1.0, 10.0):
            assert normalized_gap_at(problem, opt, r) <= 1e-12

    def test_positive_away_from_optimum(self, rng):
        problem, opt = generate(RandomLpKnownOptimum(6, 12, 0.5, 3))
        for _ in range(25):
            z = feasible_point(problem, rng)
            if residuals(problem, z).kkt_error > 1e-6:
                assert normalized_gap_at(problem, z, 1.0) > 0

    def test_monotone_nonincreasing_in_radius(self, rng):
        for seed in range(20):
            problem, _ = generate(RandomLpKnownOptimum(5, 9, 0.5, seed))
            z = feasible_point(problem, rng)
            radii = np.sort(rng.uniform(0.01, 10.0, size=8))
            rhos = [normalized_gap_at(problem, z, float(r)) for r in radii]
            for lo, hi in zip(rhos[:-1], rhos[1:]):
                assert hi <= lo + 1e-12

    def test_r_rho_nondecreasing(self, rng):
        for seed in range(20):
            problem, _ = generate(RandomLpKnownOptimum(5, 9, 0.5, seed))
            z = feasible_point(problem, rng)
            radii = np.sort(rng.uniform(0.01, 10.0, size=8))
            vals = [r * normalized_gap_at(problem, z, float(r)) for r in radii]
            for lo, hi in zip(vals[:-1], vals[1:]):
                assert hi >= lo - 1e-12

    def test_nonpositive_radius_rejected(self):
        problem, opt = generate(RandomLpKnownOptimum(4, 7, 0.6, 1))
        for r in (0.0, -1.0):
            with pytest.raises(ValueError, match="radius must be positive"):
                normalized_gap_at(problem, opt, r)

    def test_r_to_zero_limit_on_bilinear(self):
        problem, _ = generate(DiagonalBilinear((0.5, 1.5)))
        z = SaddlePoint(np.array([1.0, -2.0]), np.array([0.3, 0.4]))
        lim = np.linalg.norm(gradient_field(problem, z))
        val = normalized_gap_bisection(problem, z, 1e-6)
        assert val == pytest.approx(lim, rel=1e-9)

    def test_matches_bisection_oracle(self, rng):
        for seed in range(60):
            problem, _ = generate(RandomLpKnownOptimum(5, 8, 0.5, seed))
            z = feasible_point(problem, rng)
            r = float(rng.uniform(0.05, 5.0))
            fast = normalized_gap_at(problem, z, r)
            slow = normalized_gap_bisection(problem, z, r)
            assert fast == pytest.approx(slow, rel=1e-8, abs=1e-10)

    def test_kkt_bound_via_gap(self, rng):
        # |(h - Kz)^+| <= rho_r(z) sqrt(1 + R^2) for z in B_R(0), r in (0, R]
        for seed in range(20):
            problem, _ = generate(RandomLpKnownOptimum(5, 9, 0.5, seed))
            for _ in range(10):
                z = feasible_point(problem, rng)
                nz = np.linalg.norm(z.as_vector())
                R = nz * float(rng.uniform(1.0, 2.0)) + 1e-6
                r = float(rng.uniform(0.05, 1.0)) * R
                rho = normalized_gap_at(problem, z, r)
                kkt = residuals(problem, z).kkt_error
                assert kkt <= rho * math.sqrt(1.0 + R * R) + 1e-9


class TestNormalizedGapAdmm:
    def _state_after(self, problem, eta, steps, rng):
        state = AdmmPoint(np.zeros(problem.n), np.abs(rng.standard_normal(problem.n)),
                          rng.standard_normal(problem.n))
        cfg = StepConfig(ADMM, eta)
        ops = AdmmOperators(problem, cfg)
        for _ in range(steps):
            state = admm_step(problem, state, cfg, ops).next
        return state

    def test_zero_at_optimum(self):
        problem, opt = generate(RandomLpKnownOptimum(5, 10, 0.5, 4))
        y_admm = -problem.A.rmatvec(opt.y)
        state = AdmmPoint(opt.x, opt.x, y_admm)
        assert normalized_gap_admm(problem, state, 1.0, 0.8) <= 1e-10

    def test_zero_objective_state(self):
        problem, opt = generate(RandomLpKnownOptimum(5, 10, 0.5, 4))
        proj = AffineProjector(problem.A, problem.b)
        xu = proj.project(np.ones(problem.n))
        # consistent blocks and y = -c null the linear objective entirely
        state = AdmmPoint(xu, xu.copy(), -problem.c)
        if np.min(xu) >= 0:
            assert normalized_gap_admm(problem, state, 2.0, 1.0) <= 1e-12

    def test_matches_hand_reduction_oracle(self, rng):
        for seed in range(15):
            problem, _ = generate(RandomLpKnownOptimum(4, 8, 0.5, seed))
            eta = float(rng.uniform(0.4, 2.0))
            state = self._state_after(problem, eta, 3, rng)
            r = float(rng.uniform(0.1, 3.0))
            fast = normalized_gap_admm(problem, state, r, eta)
            # independent reduction + bisection oracle
            se = math.sqrt(eta)
            g = np.concatenate([(state.y + problem.c) / se,
                                se * (state.x_u - state.x_v)])
            lower = np.concatenate([-se * state.x_v,
                                    np.full(problem.n, -INF)])
            sol = trust_region_bisection(
                TrustRegionProblem(g, np.zeros(g.size), lower, r))
            slow = max(-float(g @ sol) / r, 0.0)
            assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)

    def test_invalid_inputs(self):
        problem, _ = generate(RandomLpKnownOptimum(4, 8, 0.5, 0))
        state = AdmmPoint(np.zeros(problem.n), np.zeros(problem.n), np.zeros(problem.n))
        with pytest.raises(ValueError):
            normalized_gap_admm(problem, state, 0.0, 1.0)
        bad = AdmmPoint(state.x_u + 5.0, state.x_v, state.y)
        with pytest.raises(ValueError, match="feasible"):
            normalized_gap_admm(problem, bad, 1.0, 1.0)


class TestMaximizer:
    def test_maximizer_attains_value(self, rng):
        # the point the solver's step length gives attains the gap the
        # block form computes
        problem, _ = generate(RandomLpKnownOptimum(5, 9, 0.5, 2))
        z = feasible_point(problem, rng)
        r = 0.8
        p = gap_trust_region(problem, z, r)
        zhat = trust_region_minimizer(p)
        attained = float(p.g @ (p.center - zhat)) / r
        assert attained == pytest.approx(normalized_gap_at(problem, z, r), rel=1e-12, abs=1e-12)
        assert np.linalg.norm(zhat - p.center) <= r * (1 + 1e-12)
        assert np.min(zhat[:problem.n]) >= -1e-12
