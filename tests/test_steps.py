import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from restartlp import (
    ADMM,
    EGM,
    PDHG,
    DiagonalBilinear,
    NormSpec,
    RandomLpKnownOptimum,
    SaddlePoint,
    SparseMatrix,
    StandardFormLp,
    StepConfig,
    AdmmPoint,
    admm_step,
    egm_step,
    generate,
    norm_value,
    pdhg_step,
    power_method_sigma_max,
    ppm_bilinear_step,
)
from restartlp import steps
from restartlp.steps import (
    PPM_BILINEAR,
    AdmmOperators,
    AffineProjectionError,
    AffineProjector,
    NormalFactor,
    PpmOperators,
    StepOperators,
)

from conftest import random_sparse
from oracles import affine_project, lagrangian


def bilinear_data(a_val=1.0, c=0.0, b=0.0, nonneg=False):
    A = SparseMatrix(1, 1, [0], [0], [a_val])
    return StandardFormLp(np.array([c]), A, np.array([b]), nonneg=nonneg)


class TestStepConfig:
    def test_constants_table(self):
        assert StepConfig(PDHG, 0.5).sufficient_decay_c == 2.0
        assert StepConfig(PDHG, 0.5).target_proximity_q == 0.0
        assert StepConfig(EGM, 0.25).sufficient_decay_c == 4.0
        assert StepConfig(EGM, 0.25).target_proximity_q == 3.0
        assert StepConfig(ADMM, 7.0).sufficient_decay_c == 1.0
        assert StepConfig(ADMM, 7.0).target_proximity_q == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            StepConfig(PDHG, 0.0)
        with pytest.raises(ValueError):
            StepConfig(PDHG, 1.0, omega=-1.0)
        with pytest.raises(ValueError):
            StepConfig(EGM, 2.0, lipschitz=1.0)
        with pytest.raises(ValueError):
            StepConfig("newton", 1.0)


class TestPdhg:
    def test_toy_hand_values(self):
        problem, _ = generate(DiagonalBilinear((1.0,)))
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))
        out = pdhg_step(problem, z, StepConfig(PDHG, 0.2))
        assert out.next.x[0] == pytest.approx(0.8)
        assert out.next.y[0] == pytest.approx(1.12)
        assert out.target is out.next

    def test_projection_hand_values(self):
        problem = bilinear_data(1.0, c=1.0, b=1.0, nonneg=True)
        z = SaddlePoint(np.array([0.0]), np.array([0.0]))
        out = pdhg_step(problem, z, StepConfig(PDHG, 0.5))
        assert out.next.x[0] == 0.0
        assert out.next.y[0] == 0.5

    def test_fixed_point_at_interior_optimum(self):
        problem = bilinear_data(1.0, c=1.0, b=1.0, nonneg=True)
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))  # x* > 0
        out = pdhg_step(problem, z, StepConfig(PDHG, 0.3))
        assert np.allclose(out.next.as_vector(), z.as_vector())


class TestEgm:
    def test_two_stage_hand_values(self):
        problem = bilinear_data(1.0)
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))
        out = egm_step(problem, z, StepConfig(EGM, 0.2, lipschitz=1.0))
        assert out.target.x[0] == pytest.approx(1.2)
        assert out.target.y[0] == pytest.approx(0.8)
        assert out.next.x[0] == pytest.approx(1.16)
        assert out.next.y[0] == pytest.approx(0.76)

    def test_fixed_point(self):
        problem = bilinear_data(1.0, c=1.0, b=1.0, nonneg=True)
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))
        out = egm_step(problem, z, StepConfig(EGM, 0.4, lipschitz=1.0))
        assert np.allclose(out.next.as_vector(), z.as_vector())
        assert np.allclose(out.target.as_vector(), z.as_vector())

    def test_projection_clamps_predictor(self):
        problem = bilinear_data(1.0, c=1.0, b=0.0, nonneg=True)
        z = SaddlePoint(np.array([0.0]), np.array([0.0]))
        out = egm_step(problem, z, StepConfig(EGM, 0.5, lipschitz=1.0))
        assert out.target.x[0] == 0.0


class TestPpm:
    def test_hand_system(self):
        # on L(x, y) = xy from (1, 1) with eta = 1 the prox system reads
        # x + y = 1, y - x = 1, so the step lands on (0, 1)
        problem, _ = generate(DiagonalBilinear((1.0,)))
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))
        out = ppm_bilinear_step(problem, z, 1.0)
        assert out.next.x[0] == pytest.approx(0.0, abs=1e-11)
        assert out.next.y[0] == pytest.approx(1.0, abs=1e-11)

    def test_zero_fixed_point(self):
        problem = bilinear_data(1.0)
        z = SaddlePoint(np.array([0.0]), np.array([0.0]))
        out = ppm_bilinear_step(problem, z, 0.7)
        assert np.allclose(out.next.as_vector(), 0.0)

    def test_small_eta_limit(self):
        problem, _ = generate(DiagonalBilinear((0.3, 1.7)))
        z = SaddlePoint(np.array([1.0, -2.0]), np.array([0.5, 0.25]))
        out = ppm_bilinear_step(problem, z, 1e-8)
        assert np.max(np.abs(out.next.as_vector() - z.as_vector())) <= 1e-6

    def test_rejects_constrained(self):
        problem = bilinear_data(1.0, nonneg=True)
        with pytest.raises(ValueError):
            ppm_bilinear_step(problem, SaddlePoint(np.array([1.0]), np.array([1.0])), 0.5)


class TestAffineProject:
    def test_member_returned(self, rng):
        A = random_sparse(4, 9, 0.5, rng)
        x0 = rng.standard_normal(9)
        b = A.matvec(x0)
        out = affine_project(A, b, x0)
        assert np.allclose(out, x0, atol=1e-10)

    def test_line_projection(self):
        A = SparseMatrix.from_dense([[1.0, 1.0]])
        out = affine_project(A, np.array([2.0]), np.array([0.0, 0.0]))
        assert np.allclose(out, [1.0, 1.0], atol=1e-10)

    def test_identity_matrix(self, rng):
        A = SparseMatrix.from_dense(np.eye(5))
        v = rng.standard_normal(5)
        out = affine_project(A, v, rng.standard_normal(5))
        assert np.allclose(out, v, atol=1e-10)

    def test_is_euclidean_projection(self, rng):
        # the result minimizes |p' - p| over the affine set: residual
        # orthogonal to the row space
        A = random_sparse(3, 8, 0.6, rng)
        b = A.matvec(rng.standard_normal(8))
        p = rng.standard_normal(8)
        out = affine_project(A, b, p)
        assert np.linalg.norm(A.matvec(out) - b) <= 1e-9
        # p - out lies in range(A'): check orthogonality to null space probes
        for _ in range(10):
            w = rng.standard_normal(8)
            null_part = w - affine_project(A, np.zeros(3), np.zeros(8)) - (
                w - affine_project(A, np.zeros(3), w))
            assert abs((p - out) @ null_part) <= 1e-8 * (1 + np.linalg.norm(w))


def _rank_deficient(kind, rng):
    """A 5x9 matrix of rank 4 and a consistent right-hand side."""
    dense = rng.standard_normal((5, 9))
    if kind == "duplicate":
        dense[4] = dense[1]
    elif kind == "zero":
        dense[4] = 0.0
    else:
        dense[4] = dense[0] + 2.0 * dense[2]
    return SparseMatrix.from_dense(dense), dense @ rng.standard_normal(9)


class TestFactoredSolves:
    @pytest.mark.parametrize("kind", ["duplicate", "zero", "dependent"])
    def test_rank_deficient_projection(self, kind, rng):
        A, b = _rank_deficient(kind, rng)
        dense = A.to_dense()
        p = 3.0 * rng.standard_normal(9)
        out = affine_project(A, b, p)
        want = p - np.linalg.pinv(dense) @ (dense @ p - b)
        assert np.max(np.abs(out - want)) <= 1e-9
        assert np.linalg.norm(A.matvec(out) - b) <= 1e-10 * (1 + np.linalg.norm(b))

    def test_inconsistent_system_raises(self, rng):
        A, b = _rank_deficient("zero", rng)
        b[4] = 1.0
        with pytest.raises(AffineProjectionError):
            affine_project(A, b, rng.standard_normal(9))

    def test_ppm_matches_dense_block_solve(self, rng):
        A = random_sparse(6, 10, 0.5, rng)
        problem = StandardFormLp(rng.standard_normal(10), A, rng.standard_normal(6),
                                 nonneg=False)
        z = SaddlePoint(rng.standard_normal(10), rng.standard_normal(6))
        eta = 0.7
        dense = A.to_dense()
        block = np.block([[np.eye(10), -eta * dense.T], [eta * dense, np.eye(6)]])
        rhs = np.concatenate([z.x - eta * problem.c, z.y + eta * problem.b])
        want = np.linalg.solve(block, rhs)
        out = ppm_bilinear_step(problem, z, eta)
        assert np.max(np.abs(out.next.as_vector() - want)) <= 1e-10
        out = ppm_bilinear_step(problem, z, eta, PpmOperators(problem, eta))
        assert np.max(np.abs(out.next.as_vector() - want)) <= 1e-10
        with pytest.raises(ValueError, match="another problem or step config"):
            ppm_bilinear_step(problem, z, eta, PpmOperators(problem, 1.0))

    def test_residual_norm_equals_numpy(self, rng):
        # the refinement's stopping test must read the same bits as the
        # np.linalg.norm it replaced
        for n in (0, 1, 2, 7, 200, 4001):
            for scale in (1e-150, 1.0, 1e150):
                v = scale * rng.standard_normal(n)
                assert steps._norm(v) == np.linalg.norm(v)


class TestAdmm:
    def test_hand_values(self):
        A = SparseMatrix(1, 1, [0], [0], [1.0])
        problem = StandardFormLp(np.array([0.0]), A, np.array([1.0]))
        z = AdmmPoint(np.zeros(1), np.zeros(1), np.zeros(1))
        out = admm_step(problem, z, StepConfig(ADMM, 1.0))
        assert out.next.x_u[0] == pytest.approx(1.0, abs=1e-10)
        assert out.next.x_v[0] == pytest.approx(1.0, abs=1e-10)
        assert out.next.y[0] == pytest.approx(0.0, abs=1e-10)

    def test_optimal_state_is_fixed_point(self):
        problem, opt = generate(RandomLpKnownOptimum(6, 12, 0.5, 5))
        y_admm = -problem.A.rmatvec(opt.y)
        z = AdmmPoint(opt.x.copy(), opt.x.copy(), y_admm)
        out = admm_step(problem, z, StepConfig(ADMM, 1.3))
        assert np.allclose(out.next.x_u, opt.x, atol=1e-8)
        assert np.allclose(out.next.x_v, opt.x, atol=1e-8)
        assert np.allclose(out.next.y, y_admm, atol=1e-8)

    def test_target_iterate_relation(self, rng):
        # target and iterate differ by eta (x_V^{t+1} - x_V^t) in the y slot
        problem, _ = generate(RandomLpKnownOptimum(5, 9, 0.5, 2))
        eta = 0.8
        cfg = StepConfig(ADMM, eta)
        ops = AdmmOperators(problem, cfg)
        z = AdmmPoint(np.zeros(problem.n), np.abs(rng.standard_normal(problem.n)),
                      rng.standard_normal(problem.n))
        for _ in range(5):
            xv_before = z.x_v.copy()
            out = admm_step(problem, z, cfg, ops)
            z = out.next
            gap_y = out.target.y - out.next.y
            assert np.allclose(gap_y, -eta * (out.next.x_v - xv_before), atol=1e-12)
            assert np.allclose(out.target.x_u, out.next.x_u)
            assert np.allclose(out.target.x_v, out.next.x_v)

    def test_iterate_feasibility_invariant(self, rng):
        problem, _ = generate(RandomLpKnownOptimum(7, 13, 0.4, 9))
        z = AdmmPoint(np.zeros(problem.n), np.zeros(problem.n), np.zeros(problem.n))
        cfg = StepConfig(ADMM, 1.0)
        ops = AdmmOperators(problem, cfg)
        for _ in range(20):
            z = admm_step(problem, z, cfg, ops).next
            assert np.min(z.x_v) >= 0.0
            resid = np.linalg.norm(problem.A.matvec(z.x_u) - problem.b)
            assert resid <= 1e-8 * (1 + np.linalg.norm(problem.b))

    def test_target_proximity_bound(self, rng):
        # |target - next|_M <= 2 |prev - z*|_M via non-expansiveness
        problem, opt = generate(RandomLpKnownOptimum(6, 10, 0.5, 21))
        eta = 1.0
        spec = NormSpec.admm(eta)
        y_admm = -problem.A.rmatvec(opt.y)
        star = AdmmPoint(opt.x, opt.x, y_admm)
        z = AdmmPoint(np.zeros(problem.n), np.zeros(problem.n), np.zeros(problem.n))
        cfg = StepConfig(ADMM, eta)
        ops = AdmmOperators(problem, cfg)
        for _ in range(50):
            prev = z
            out = admm_step(problem, z, cfg, ops)
            z = out.next
            lhs = norm_value(spec, problem, _diff(out.target, out.next))
            rhs = 2.0 * norm_value(spec, problem, _diff(prev, star))
            assert lhs <= rhs + 1e-9


def _diff(a, b):
    class _D:
        pass

    d = _D()
    d.x_v = a.x_v - b.x_v
    d.y = a.y - b.y
    return d


class TestNonExpansiveness:
    def test_pdhg_method_norm(self, rng):
        # 10^4 total steps across random starts on known-optimum instances
        total = 0
        for seed in range(5):
            problem, opt = generate(RandomLpKnownOptimum(8, 16, 0.4, seed))
            smax = power_method_sigma_max(problem.A, tol=1e-8, seed=seed)
            eta = 0.9 / smax
            cfg = StepConfig(PDHG, eta)
            ops = StepOperators(problem, cfg)
            spec = NormSpec.pdhg(eta)
            for _ in range(4):
                z = SaddlePoint(np.abs(rng.standard_normal(problem.n)),
                                rng.standard_normal(problem.m))
                d_prev = norm_value(spec, problem,
                                    SaddlePoint(z.x - opt.x, z.y - opt.y))
                for _ in range(500):
                    z = pdhg_step(problem, z, cfg, ops).next
                    d = norm_value(spec, problem,
                                   SaddlePoint(z.x - opt.x, z.y - opt.y))
                    assert d <= d_prev + 1e-12
                    d_prev = d
                    total += 1
        assert total == 10_000

    def test_ppm_euclidean(self, rng):
        problem, opt = generate(DiagonalBilinear((0.4, 1.3)))
        ops = PpmOperators(problem, 0.6)
        for _ in range(4):
            z = SaddlePoint(rng.standard_normal(2), rng.standard_normal(2))
            d_prev = np.linalg.norm(z.as_vector())
            for _ in range(250):
                z = ppm_bilinear_step(problem, z, 0.6, ops).next
                d = np.linalg.norm(z.as_vector())
                assert d <= d_prev + 1e-12
                d_prev = d


class TestTargetProximityEgm:
    def test_egm_bound_on_singleton_instances(self, rng):
        # |target^t - z^{t-1}| <= 3 dist(z^t, Z*) with Z* = {0}
        for seed in range(5):
            rr = np.random.default_rng(seed)
            sigmas = np.sort(rr.uniform(0.2, 1.5, size=3))
            problem, _ = generate(DiagonalBilinear(tuple(sigmas)))
            eta = 0.99 / sigmas[-1]
            cfg = StepConfig(EGM, eta, lipschitz=float(sigmas[-1]))
            ops = StepOperators(problem, cfg)
            z = SaddlePoint(rr.standard_normal(3), rr.standard_normal(3))
            for _ in range(200):
                prev = z.as_vector()
                out = egm_step(problem, z, cfg, ops)
                z = out.next
                lhs = np.linalg.norm(out.target.as_vector() - prev)
                rhs = 3.0 * np.linalg.norm(z.as_vector())
                assert lhs <= rhs + 1e-12


class TestErgodicDecay:
    def test_pdhg_primal_dual_gap_rate(self, rng):
        # L(xbar, y) - L(x, ybar) <= C |z - z0|_M^2 / (2 t) at probe points
        problem, _ = generate(DiagonalBilinear((0.5, 1.0)))
        eta = 0.8
        cfg = StepConfig(PDHG, eta)
        ops = StepOperators(problem, cfg)
        spec = NormSpec.pdhg(eta)
        z0 = SaddlePoint(np.array([1.0, -0.5]), np.array([0.25, 1.5]))
        z = z0.copy()
        avg = None
        checkpoints = {10, 100, 1000}
        for t in range(1, 1001):
            out = pdhg_step(problem, z, cfg, ops)
            z = out.next
            tv = out.target.as_vector()
            avg = tv.copy() if avg is None else avg + (tv - avg) / t
            if t in checkpoints:
                zbar = SaddlePoint.from_vector(avg, problem.n)
                for _ in range(100):
                    probe = SaddlePoint(rng.standard_normal(2), rng.standard_normal(2))
                    gap = (lagrangian(problem, SaddlePoint(zbar.x, probe.y))
                           - lagrangian(problem, SaddlePoint(probe.x, zbar.y)))
                    diff = SaddlePoint(probe.x - z0.x, probe.y - z0.y)
                    bound = norm_value(spec, problem, diff) ** 2 / (2 * eta * t)
                    assert gap <= bound + 1e-10


class TestDiagonalRecurrence:
    def test_pdhg_matches_block_matrix(self, rng):
        from restartlp import dynamics_matrix

        sigmas = (0.3, 0.8, 1.0)
        problem, _ = generate(DiagonalBilinear(sigmas))
        eta = 0.7
        cfg = StepConfig(PDHG, eta)
        ops = StepOperators(problem, cfg)
        z = SaddlePoint(rng.standard_normal(3), rng.standard_normal(3))
        mats = [dynamics_matrix(s, eta) for s in sigmas]
        for _ in range(50):
            blocks = [m @ np.array([z.x[i], z.y[i]]) for i, m in enumerate(mats)]
            z = pdhg_step(problem, z, cfg, ops).next
            for i, blk in enumerate(blocks):
                assert abs(z.x[i] - blk[0]) <= 1e-14 * max(1, abs(blk[0]))
                assert abs(z.y[i] - blk[1]) <= 1e-14 * max(1, abs(blk[1]))


def _buffered_cases(rng):
    """(label, start point, call(z, out, target)) per method; ``call``
    passes each step the buffers it takes."""
    lp, _ = generate(RandomLpKnownOptimum(15, 30, 0.3, 4))
    sigma = power_method_sigma_max(lp.A)
    bil, _ = generate(DiagonalBilinear((0.3, 0.8, 1.5)))
    pdhg_cfg = StepConfig(PDHG, 0.9 / sigma, omega=1.7)
    egm_cfg = StepConfig(EGM, 0.9 / sigma, omega=0.6)
    n = lp.n

    def lp_point():
        return SaddlePoint(np.abs(rng.standard_normal(n)), rng.standard_normal(lp.m))

    return [
        ("pdhg", lp_point(),
         lambda z, out, tgt: pdhg_step(lp, z, pdhg_cfg, out=out)),
        ("pdhg-bilinear", SaddlePoint(rng.standard_normal(3), rng.standard_normal(3)),
         lambda z, out, tgt: pdhg_step(bil, z, StepConfig(PDHG, 0.5), out=out)),
        ("egm", lp_point(),
         lambda z, out, tgt: egm_step(lp, z, egm_cfg, out=out, target=tgt)),
        ("ppm", SaddlePoint(rng.standard_normal(3), rng.standard_normal(3)),
         lambda z, out, tgt: ppm_bilinear_step(bil, z, 0.7, out=out)),
        ("admm", AdmmPoint(rng.standard_normal(n), np.abs(rng.standard_normal(n)),
                           rng.standard_normal(n)),
         lambda z, out, tgt: admm_step(lp, z, StepConfig(ADMM, 1.3), out=out, target=tgt)),
    ]


def _operator_cases():
    """(label, problem, config) for the methods that step through
    :class:`StepOperators`: an LP and a bilinear problem, omega != 1."""
    lp, _ = generate(RandomLpKnownOptimum(15, 30, 0.3, 4))
    eta = 0.9 / power_method_sigma_max(lp.A)
    bil, _ = generate(DiagonalBilinear((0.3, 0.8, 1.5)))
    return [
        ("pdhg", lp, StepConfig(PDHG, eta, omega=1.7)),
        ("egm", lp, StepConfig(EGM, eta, omega=0.6)),
        ("pdhg-bilinear", bil, StepConfig(PDHG, 0.5, omega=1.3)),
        ("egm-bilinear", bil, StepConfig(EGM, 0.5)),
    ]


def _step_of(config):
    return pdhg_step if config.method == PDHG else egm_step


def _start(problem, rng):
    x = rng.standard_normal(problem.n)
    return SaddlePoint(np.abs(x) if problem.nonneg else x, rng.standard_normal(problem.m))


class TestBufferedSteps:
    """Every step writes into caller buffers with the same arithmetic as
    when it allocates its own."""

    def test_buffered_equals_allocating(self, rng):
        for label, z, call in _buffered_cases(rng):
            start = z.as_vector()
            plain = call(z, None, None)
            # stale buffer contents must not reach the result
            out, tgt = np.full(start.size, np.nan), np.full(start.size, np.nan)
            buffered = call(z, out, tgt)
            assert np.array_equal(buffered.next.as_vector(), plain.next.as_vector()), label
            assert np.array_equal(buffered.target.as_vector(), plain.target.as_vector()), label
            assert np.array_equal(out, plain.next.as_vector()), label
            assert np.shares_memory(buffered.next.y, out), label
            assert np.array_equal(z.as_vector(), start), label   # z is only read

    def test_out_sharing_memory_with_z_raises(self, rng):
        for label, z, call in _buffered_cases(rng):
            flat = z.as_vector()
            size = flat.size
            if isinstance(z, AdmmPoint):
                k = z.x_u.size
                z = AdmmPoint(flat[:k], flat[k:2 * k], flat[2 * k:])
            else:
                k = z.x.size
                z = SaddlePoint(flat[:k], flat[k:])
            with pytest.raises(ValueError, match="shares memory"):
                call(z, flat, np.empty(size))
            if label in ("egm", "admm"):
                with pytest.raises(ValueError, match="shares memory"):
                    call(z, np.empty(size), flat)

    def test_bad_buffer_raises(self, rng):
        for label, z, call in _buffered_cases(rng):
            size = z.as_vector().size
            for bad in (np.empty(size - 1), np.empty(size, dtype=np.float32)):
                with pytest.raises(ValueError, match="step buffer"):
                    call(z, bad, np.empty(size))

    @pytest.mark.parametrize("method", [PDHG, EGM])
    def test_buffered_step_allocates_no_vector(self, method):
        # steady state of a run that steps between the operators' buffers:
        # the operators are built once, and a step allocates no array
        problem, _ = generate(RandomLpKnownOptimum(3000, 6000, 4e-4, 0))
        m, n = problem.m, problem.n
        config = StepConfig(method, 0.5 / power_method_sigma_max(problem.A))
        ops = StepOperators(problem, config)
        bufs = ops.buffers
        bufs[0][:] = 0.0
        z = SaddlePoint(bufs[0][:n], bufs[0][n:])
        kwargs = {} if method == PDHG else {"target": ops.target}
        step = pdhg_step if method == PDHG else egm_step

        def one(k, z):
            return step(problem, z, config, ops, out=bufs[(k + 1) % 2], **kwargs).next

        for k in range(3):
            z = one(k, z)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            one(3, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m, peak


class TestStepOperators:
    """PDHG and EGM step through operators bound once; a step that builds
    its own runs the same arithmetic."""

    def test_built_operators_give_the_same_bits(self, rng):
        for label, problem, config in _operator_cases():
            z = _start(problem, rng)
            step = _step_of(config)
            ops = StepOperators(problem, config)
            own = step(problem, z, config)
            bound = step(problem, z, config, ops)
            assert np.array_equal(own.next.as_vector(), bound.next.as_vector()), label
            assert np.array_equal(own.target.as_vector(), bound.target.as_vector()), label

    def test_bound_buffers_give_the_same_bits_as_flat_buffers(self, rng):
        # a run of steps alternating between the operators' buffers against
        # the same run into caller buffers, both from the same start
        for label, problem, config in _operator_cases():
            step = _step_of(config)
            ops = StepOperators(problem, config)
            size = problem.n + problem.m
            flat = [np.full(size, np.nan), np.full(size, np.nan)]
            flat_target = np.full(size, np.nan)
            kwargs = {"target": ops.target} if config.method == EGM else {}
            flat_kwargs = {"target": flat_target} if config.method == EGM else {}
            z_bound = z_flat = _start(problem, rng)
            for k in range(40):
                ops.buffers[k % 2].fill(np.nan)   # stale contents must not leak
                bound = step(problem, z_bound, config, ops, out=ops.buffers[k % 2], **kwargs)
                plain = step(problem, z_flat, config, ops, out=flat[k % 2], **flat_kwargs)
                assert bound is not plain, label
                assert np.array_equal(bound.next.as_vector(), plain.next.as_vector()), label
                assert np.array_equal(bound.target.as_vector(), plain.target.as_vector()), label
                assert np.shares_memory(bound.next.x, ops.buffers[k % 2]), label
                z_bound, z_flat = bound.next, plain.next

    def test_bound_output_is_built_once(self, rng):
        problem, config = _operator_cases()[0][1:]
        ops = StepOperators(problem, config)
        z = _start(problem, rng)
        first = pdhg_step(problem, z, config, ops, out=ops.buffers[0])
        second = pdhg_step(problem, first.next, config, ops, out=ops.buffers[1])
        third = pdhg_step(problem, second.next, config, ops, out=ops.buffers[0])
        assert third is first and second is not first

    def test_point_sharing_memory_with_the_output_raises(self, rng):
        for label, problem, config in _operator_cases():
            step = _step_of(config)
            ops = StepOperators(problem, config)
            n = problem.n
            kwargs = {"target": ops.target} if config.method == EGM else {}
            for k in (0, 1):
                buf = ops.buffers[k]
                buf[:] = _start(problem, rng).as_vector()
                # a point over the output buffer itself, not the partner
                z = SaddlePoint(buf[:n], buf[n:])
                with pytest.raises(ValueError, match="shares memory"):
                    step(problem, z, config, ops, out=buf, **kwargs)
                # the other buffer read through a fresh point object is fine
                other = ops.buffers[1 - k]
                other[:] = buf
                step(problem, SaddlePoint(other[:n], other[n:]), config, ops, out=buf, **kwargs)
            if config.method == EGM:
                t = ops.target
                t[:] = _start(problem, rng).as_vector()
                with pytest.raises(ValueError, match="shares memory"):
                    step(problem, SaddlePoint(t[:n], t[n:]), config, ops,
                         out=ops.buffers[0], target=t)

    def test_operators_of_another_problem_or_config_raise(self, rng):
        (_, lp, cfg), _, (_, bil, bil_cfg), _ = _operator_cases()
        ops = StepOperators(lp, cfg)
        z = _start(lp, rng)
        with pytest.raises(ValueError, match="built for another"):
            pdhg_step(lp, z, StepConfig(PDHG, cfg.eta / 2, omega=cfg.omega), ops)
        with pytest.raises(ValueError, match="built for another"):
            pdhg_step(bil, _start(bil, rng), bil_cfg, ops)
        # an equal config that is another object is accepted
        pdhg_step(lp, z, StepConfig(PDHG, cfg.eta, omega=cfg.omega), ops)
        for method, eta in ((ADMM, 1.0), ("ppm", 0.5)):
            with pytest.raises(ValueError, match="PDHG and EGM"):
                StepOperators(lp, StepConfig(method, eta))

    def test_operators_fold_the_step_sizes_into_the_data(self, rng):
        _, problem, config = _operator_cases()[0]
        ops = StepOperators(problem, config)
        tau, sigma = config.eta / config.omega, config.eta * config.omega
        assert np.array_equal(ops.tau_c, tau * problem.c)
        assert np.array_equal(ops.sigma_b, sigma * problem.b)
        assert np.array_equal(ops.K._adj.data, tau * problem.A._adj.data)
        assert np.array_equal(ops.K._fwd.data, -sigma * problem.A._fwd.data)
        assert ops.work.shape == (problem.n,) and ops.target is None
        egm = StepOperators(problem, replace(config, method=EGM))
        assert egm.work is None and egm.target.shape == (problem.n + problem.m,)


def _admm_reference(problem, z, eta):
    """ADMM's step as allocating array expressions, with a projection into
    a new array: the arithmetic the bound step must repeat bit for bit."""
    xu = AffineProjector(problem.A, problem.b).project(z.x_v + z.y / eta)
    xv = np.maximum(xu - z.y / eta - problem.c / eta, 0.0)
    return (np.concatenate([xu, xv, z.y - eta * (xu - xv)]),
            np.concatenate([xu, xv, z.y - eta * (xu - z.x_v)]))


def _ppm_reference(problem, z, eta):
    """PPM's step as allocating array expressions over a new factor."""
    A, s = problem.A, 1.0 / (eta * eta)
    x1 = z.x - problem.c * eta
    y1 = np.zeros(problem.m)
    top = z.y + eta * problem.b
    rhs = top - eta * A.matvec(x1)

    def correct(dy):
        nonlocal x1, y1
        y1 = y1 + dy
        x1 = x1 + eta * A.rmatvec(dy)
        return s * (top - y1 - eta * A.matvec(x1))

    NormalFactor(A, s).refine(correct, s * rhs, s * 1e-12 * (1.0 + float(np.linalg.norm(rhs))))
    return np.concatenate([x1, y1])


def _admm_ppm_cases(rng):
    """(label, problem, config, operators class, step(problem, z, config,
    ops, out, target), reference(problem, z, config) -> (next, target))."""
    lp, _ = generate(RandomLpKnownOptimum(15, 30, 0.3, 4))
    A = random_sparse(6, 10, 0.5, rng)
    bil = StandardFormLp(rng.standard_normal(10), A, rng.standard_normal(6), nonneg=False)

    def admm(problem, z, config, ops=None, out=None, target=None):
        return admm_step(problem, z, config, ops, out=out, target=target)

    def ppm(problem, z, eta, ops=None, out=None, target=None):
        return ppm_bilinear_step(problem, z, eta, ops, out=out)

    def ppm_reference(problem, z, eta):
        nxt = _ppm_reference(problem, z, eta)
        return nxt, nxt

    return [
        ("admm", lp, StepConfig(ADMM, 1.3), AdmmOperators, admm,
         lambda problem, z, config: _admm_reference(problem, z, config.eta)),
        ("ppm", bil, 0.7, PpmOperators, ppm, ppm_reference),
    ]


def _admm_ppm_start(problem, rng):
    if problem.nonneg:
        n = problem.n
        return AdmmPoint(rng.standard_normal(n), np.abs(rng.standard_normal(n)),
                         rng.standard_normal(n))
    return _start(problem, rng)


class TestAdmmAndPpmOperators:
    """ADMM and PPM step through operators bound once, with the arithmetic
    of their allocating form; a one-off step builds its own."""

    def test_bound_steps_repeat_the_allocating_arithmetic(self, rng):
        for label, problem, config, kind, step, reference in _admm_ppm_cases(rng):
            ops = kind(problem, config)
            z = _admm_ppm_start(problem, rng)
            for k in range(30):
                want_next, want_target = reference(problem, z, config)
                ops.buffers[k % 2].fill(np.nan)   # stale contents must not leak
                out = step(problem, z, config, ops, ops.buffers[k % 2], ops.target)
                assert np.array_equal(out.next.as_vector(), want_next), (label, k)
                assert np.array_equal(out.target.as_vector(), want_target), (label, k)
                assert np.shares_memory(out.next.y, ops.buffers[k % 2]), label
                z = out.next

    def test_one_off_step_equals_bound_step(self, rng):
        for label, problem, config, kind, step, _ in _admm_ppm_cases(rng):
            ops = kind(problem, config)
            z = _admm_ppm_start(problem, rng)
            own = step(problem, z, config)
            bound = step(problem, z, config, ops, ops.buffers[0], ops.target)
            assert np.array_equal(own.next.as_vector(), bound.next.as_vector()), label
            assert np.array_equal(own.target.as_vector(), bound.target.as_vector()), label
            assert not np.shares_memory(own.next.y, ops.buffers[0]), label

    def test_bound_output_is_built_once(self, rng):
        for label, problem, config, kind, step, _ in _admm_ppm_cases(rng):
            ops = kind(problem, config)
            z = _admm_ppm_start(problem, rng)
            first = step(problem, z, config, ops, ops.buffers[0], ops.target)
            second = step(problem, first.next, config, ops, ops.buffers[1], ops.target)
            third = step(problem, second.next, config, ops, ops.buffers[0], ops.target)
            assert third is first and second is not first, label

    def test_operators_of_another_problem_or_config_raise(self, rng):
        (_, lp, admm_cfg, *_), (_, bil, eta, *_) = _admm_ppm_cases(rng)
        z = _admm_ppm_start(lp, rng)
        with pytest.raises(ValueError, match="built for another"):
            admm_step(lp, z, StepConfig(ADMM, 2.0), AdmmOperators(lp, admm_cfg))
        with pytest.raises(ValueError, match="built for another"):
            admm_step(lp, z, admm_cfg, AffineProjector(lp.A, lp.b))
        with pytest.raises(ValueError, match="built for another"):
            ppm_bilinear_step(bil, _start(bil, rng), eta, PpmOperators(bil, 2 * eta))
        with pytest.raises(ValueError, match="for ADMM"):
            AdmmOperators(lp, StepConfig(PDHG, 0.5))
        with pytest.raises(ValueError, match="unconstrained bilinear"):
            PpmOperators(lp, 0.5)

    def test_operators_hold_the_scaled_data(self, rng):
        (_, lp, config, *_), (_, bil, eta, *_) = _admm_ppm_cases(rng)
        admm = AdmmOperators(lp, config)
        assert np.array_equal(admm.c_eta, lp.c / config.eta)
        assert admm.target.shape == (3 * lp.n,) and admm.y_eta.shape == (lp.n,)
        assert admm.projector.factor is NormalFactor.of(lp.A)
        ppm = PpmOperators(bil, eta)
        assert np.array_equal(ppm.eta_c, bil.c * eta)
        assert np.array_equal(ppm.eta_b, eta * bil.b)
        assert ppm.target is None and ppm.factor is NormalFactor.of(bil.A, 1.0 / (eta * eta))

    @pytest.mark.parametrize("method", [ADMM, PPM_BILINEAR])
    def test_bound_step_allocates_no_iterate(self, method):
        # steady state of a run that steps between the operators' buffers:
        # the operators are built once, and a step allocates no array as
        # long as the iterate (the factor's back-solve returns a length-m
        # array, m < n here)
        problem, _ = generate(RandomLpKnownOptimum(3000, 6000, 4e-4, 0))
        m, n = problem.m, problem.n
        if method == ADMM:
            config = StepConfig(ADMM, 1.0)
            ops = AdmmOperators(problem, config)
            step = admm_step
            z = AdmmPoint(*np.split(ops.buffers[0], 3))
        else:
            problem = replace(problem, nonneg=False)
            config = 0.5
            ops = PpmOperators(problem, config)
            step = ppm_bilinear_step
            z = SaddlePoint(ops.buffers[0][:n], ops.buffers[0][n:])
        ops.buffers[0][:] = 1.0
        kwargs = {"target": ops.target} if method == ADMM else {}

        def one(k, z):
            return step(problem, z, config, ops, ops.buffers[(k + 1) % 2], **kwargs).next

        for k in range(3):
            z = one(k, z)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            one(3, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n, (peak, 8 * m)


class TestProjectInto:
    def test_into_out_or_in_place_gives_the_same_bits(self, rng):
        problem, _ = generate(RandomLpKnownOptimum(15, 30, 0.3, 4))
        projector = AffineProjector(problem.A, problem.b)
        p = rng.standard_normal(problem.n)
        want = projector.project(p)
        assert not np.shares_memory(want, p)
        out = np.full(problem.n, np.nan)
        assert projector.project(p, out=out) is out and np.array_equal(out, want)
        q = p.copy()
        assert projector.project(q, out=q) is q and np.array_equal(q, want)
        for bad in (np.empty(problem.n - 1), np.empty(problem.n, dtype=np.float32),
                    list(p)):
            with pytest.raises(ValueError, match="writeable float64"):
                projector.project(p, out=bad)
