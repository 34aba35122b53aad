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
    RandomLpKnownOptimum,
    RestartScheme,
    SaddlePoint,
    SolveOptions,
    SparseMatrix,
    StandardFormLp,
    StepConfig,
    AdmmPoint,
    admm_step,
    egm_step,
    generate,
    pdhg_step,
    power_method_sigma_max,
    ppm_bilinear_step,
    run_restarted,
)
from restartlp import steps
from restartlp.steps import (
    PPM_BILINEAR,
    AdmmOperators,
    AffineProjectionError,
    AffineProjector,
    NormalFactor,
    StepOperators,
)

from restartlp.scaling import rescale

from conftest import random_sparse
from oracles import (NormSpec, affine_project, egm_four_products, lagrangian, norm_value,
                     pdhg_by_blocks)


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

    @pytest.mark.parametrize("method", [PDHG, EGM, ADMM, PPM_BILINEAR])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_step_sizes_raise(self, method, value):
        with pytest.raises(ValueError, match="eta must be positive and finite"):
            StepConfig(method, value)
        with pytest.raises(ValueError, match="omega must be positive and finite"):
            StepConfig(method, 0.5, omega=value)
        with pytest.raises(ValueError, match="lipschitz must be positive and finite"):
            StepConfig(method, 0.5, lipschitz=value)


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


def _on_path(path, A, b):
    """``A`` and ``b`` as given ("dense": a small A's factor is applied as
    a dense inverse), or with an identity block of order 200 after them on
    the diagonal ("sparse": the LU of A A' then stays smaller than that
    inverse).  Either way the factor's path is checked."""
    if path == "sparse":
        k = 200
        diag = np.arange(k)
        A = SparseMatrix(A.n_rows + k, A.n_cols + k,
                         np.concatenate([A.rows, A.n_rows + diag]),
                         np.concatenate([A.cols, A.n_cols + diag]),
                         np.concatenate([A.vals, np.ones(k)]))
        b = np.concatenate([b, np.ones(k)])
    assert (NormalFactor.of(A).inverse is None) == (path == "sparse")
    return A, b


class TestFactoredSolves:
    @pytest.mark.parametrize("kind", ["duplicate", "zero", "dependent"])
    def test_rank_deficient_projection(self, kind, rng):
        for path in ("dense", "sparse"):
            A, b = _on_path(path, *_rank_deficient(kind, rng))
            dense = A.to_dense()
            p = 3.0 * rng.standard_normal(A.n_cols)
            out = affine_project(A, b, p)
            want = p - np.linalg.pinv(dense) @ (dense @ p - b)
            assert np.max(np.abs(out - want)) <= 1e-9, path
            assert np.linalg.norm(A.matvec(out) - b) <= 1e-10 * (1 + np.linalg.norm(b)), path

    def test_inconsistent_system_raises(self, rng):
        for path in ("dense", "sparse"):
            A, b = _rank_deficient("zero", rng)
            b[4] = 1.0
            A, b = _on_path(path, A, b)
            with pytest.raises(AffineProjectionError):
                affine_project(A, b, rng.standard_normal(A.n_cols))

    def test_inverse_only_when_the_lu_is_no_smaller(self, monkeypatch, rng):
        # a planted 200x400 LP's A A' is dense enough that its LU holds more
        # bytes than the inverse; a 50x50 diagonal's stays a sparse LU
        lus = []
        real_splu = steps.spla.splu

        def splu(*args, **kwargs):
            lus.append(real_splu(*args, **kwargs))
            return lus[-1]

        monkeypatch.setattr(steps.spla, "splu", splu)
        planted, _ = generate(RandomLpKnownOptimum(200, 400, 0.05, 0))
        diagonal, _ = generate(DiagonalBilinear(tuple(np.linspace(0.1, 1.0, 50))))
        for A, shift, inverse in ((planted.A, 0.0, True), (diagonal.A, 4.0, False)):
            factor = NormalFactor(A, shift)
            m = A.n_rows
            assert (12 * lus[-1].nnz >= 8 * m * m) == inverse
            assert (factor.inverse is not None) == inverse
            # either way a solve returns a new array holding the solution
            r = rng.standard_normal(m)
            matrix = shift * np.eye(m) + A.to_dense() @ A.to_dense().T
            d = factor._solve(r)
            assert d is not factor._solve(r)
            assert np.linalg.norm(matrix @ d - r) <= 1e-10 * np.linalg.norm(r)

    def test_inverse_in_column_blocks_equals_one_solve(self, monkeypatch, rng):
        # the inverse is solved for a block of columns at a time; on the
        # rescaled planted 200x400 LPs (200 = 6 x 32 + 8, so a short last
        # block) it must hold the bits of one solve against the identity,
        # in the same (Fortran) layout, so that its products do too
        lus = []
        real_splu = steps.spla.splu

        def splu(*args, **kwargs):
            lus.append(real_splu(*args, **kwargs))
            return lus[-1]

        monkeypatch.setattr(steps.spla, "splu", splu)
        for seed in range(8):
            planted, _ = generate(RandomLpKnownOptimum(200, 400, 0.05, seed))
            A = rescale(planted)[0].A
            factor = NormalFactor(A)
            whole = lus[-1].solve(np.eye(A.n_rows))
            assert factor.inverse is not None and factor.inverse.flags.f_contiguous
            assert np.array_equal(factor.inverse, whole), seed
            r = rng.standard_normal(A.n_rows)
            assert np.array_equal(factor._solve(r), whole.dot(r)), seed

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
        for _ in range(4):
            z = SaddlePoint(rng.standard_normal(2), rng.standard_normal(2))
            d_prev = np.linalg.norm(z.as_vector())
            for _ in range(250):
                z = ppm_bilinear_step(problem, z, 0.6).next
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


def _buffer_cases():
    """(label, problem, config) for every method whose operators own its
    iterate buffers: the PDHG and EGM cases, and ADMM on the LP."""
    cases = _operator_cases()
    return cases + [("admm", cases[0][1], StepConfig(ADMM, 1.3))]


_STEPS = {PDHG: pdhg_step, EGM: egm_step, ADMM: admm_step}


def _step_of(config):
    return _STEPS[config.method]


def _operators_for(problem, config):
    return (AdmmOperators if config.method == ADMM else StepOperators)(problem, config)


def _start(problem, rng, method=PDHG):
    if method == ADMM:
        n = problem.n
        return AdmmPoint(rng.standard_normal(n), np.abs(rng.standard_normal(n)),
                         rng.standard_normal(n))
    x = rng.standard_normal(problem.n)
    return SaddlePoint(np.abs(x) if problem.nonneg else x, rng.standard_normal(problem.m))


def _view(problem, method, vec):
    """A new point of ``method`` over the flat vector ``vec``."""
    n = problem.n
    if method == ADMM:
        return AdmmPoint(vec[:n], vec[n:2 * n], vec[2 * n:])
    return SaddlePoint(vec[:n], vec[n:])


class TestOperatorBuffers:
    """The operators of PDHG, EGM and ADMM own the iterate buffers: a step
    writes into the one that does not hold its point, or into the first
    one from any other point."""

    def test_bound_step_equals_one_off_step(self, rng):
        # stale buffer contents must not reach the result, z is only read,
        # and the flat vectors of the output hold its points
        for label, problem, config in _buffer_cases():
            step = _step_of(config)
            ops = _operators_for(problem, config)
            for buf in (*ops.buffers, ops.target):
                if buf is not None:
                    buf.fill(np.nan)
            z = _start(problem, rng, config.method)
            start = z.as_vector()
            own = step(problem, z, config)
            bound = step(problem, z, config, ops)
            assert np.array_equal(own.next.as_vector(), bound.next.as_vector()), label
            assert np.array_equal(own.target.as_vector(), bound.target.as_vector()), label
            assert not np.shares_memory(own.next_vec, ops.buffers[0]), label
            assert bound.next_vec is ops.buffers[0], label
            assert np.array_equal(bound.next_vec, bound.next.as_vector()), label
            assert np.array_equal(bound.target_vec, bound.target.as_vector()), label
            assert (bound.target_vec is bound.next_vec) == (ops.target is None), label
            assert np.array_equal(z.as_vector(), start), label

    def test_alternate_steps_return_the_prebuilt_outputs(self, rng):
        for label, problem, config in _buffer_cases():
            step = _step_of(config)
            ops = _operators_for(problem, config)
            first = step(problem, _start(problem, rng, config.method), config, ops)
            second = step(problem, first.next, config, ops)
            third = step(problem, second.next, config, ops)
            assert third is first and second is not first, label
            assert first.next_vec is ops.buffers[0] and second.next_vec is ops.buffers[1], label

    def test_bind_concatenates_a_new_point_only_for_a_flat_step(self, rng):
        # from a new point PDHG and EGM read its blocks concatenated once;
        # ADMM reads the blocks only, so nothing is concatenated
        for label, problem, config in _buffer_cases():
            ops = _operators_for(problem, config)
            z = _start(problem, rng, config.method)
            flat = ops.bind(z)[0]
            if config.method == ADMM:
                assert flat is None, label
            else:
                assert np.array_equal(flat, z.as_vector()), label

    def test_point_sharing_memory_with_the_output_raises(self, rng):
        for label, problem, config in _buffer_cases():
            step = _step_of(config)
            ops = _operators_for(problem, config)
            first, second = ops.buffers
            first[:] = _start(problem, rng, config.method).as_vector()
            # a new point over the buffer such a point is stepped into
            with pytest.raises(ValueError, match="shares memory"):
                step(problem, _view(problem, config.method, first), config, ops)
            if ops.target is not None:
                ops.target[:] = first
                with pytest.raises(ValueError, match="shares memory"):
                    step(problem, _view(problem, config.method, ops.target), config, ops)
            # the other buffer read through a new point object is fine
            second[:] = first
            out = step(problem, _view(problem, config.method, second), config, ops)
            assert out.next_vec is first, label

    @pytest.mark.parametrize("method", [PDHG, EGM, ADMM])
    def test_steady_state_step_allocates_no_vector(self, method):
        # steady state of a run that steps from each output's next: the
        # operators are built once, and a step allocates no array as long
        # as the iterate (ADMM's factor back-solve returns a length-m
        # array, m < n here)
        problem, _ = generate(RandomLpKnownOptimum(3000, 6000, 4e-4, 0))
        m, n = problem.m, problem.n
        if method == ADMM:
            config, start, bound = StepConfig(ADMM, 1.0), np.ones(3 * n), 8 * n
        else:
            config = StepConfig(method, 0.5 / power_method_sigma_max(problem.A))
            start, bound = np.zeros(n + m), 8 * m
        ops = _operators_for(problem, config)
        step = _step_of(config)
        z = _view(problem, method, start)
        for _ in range(3):
            z = step(problem, z, config, ops).next
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            step(problem, z, config, ops)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, peak


class TestStepOperators:
    """PDHG and EGM step through operators bound once; a step that builds
    its own runs the same arithmetic."""

    def test_bound_run_gives_the_same_bits_as_one_off_steps(self, rng):
        # a run of steps alternating between the operators' buffers, with a
        # step from a new anchor halfway, against the same run of one-off
        # steps that build their own operators
        for label, problem, config in _operator_cases():
            step = _step_of(config)
            ops = StepOperators(problem, config)
            z_bound = z_own = _start(problem, rng)
            into = 0
            for k in range(40):
                if k == 21:
                    # a new anchor goes into the first buffer, which holds
                    # the point it was copied from
                    z_bound = z_own = _view(problem, PDHG, z_own.as_vector())
                    into = 0
                ops.buffers[into].fill(np.nan)   # stale contents must not leak
                bound = step(problem, z_bound, config, ops)
                own = step(problem, z_own, config)
                assert bound.next_vec is ops.buffers[into], (label, k)
                assert np.array_equal(bound.next_vec, own.next_vec), (label, k)
                assert np.array_equal(bound.target_vec, own.target_vec), (label, k)
                z_bound, z_own, into = bound.next, own.next, 1 - into

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
        assert np.array_equal(ops.shift[:problem.n], -(tau * problem.c))
        assert np.array_equal(ops.shift[problem.n:], sigma * problem.b)
        assert np.array_equal(ops.K._adj_vals, tau * problem.A.vals)
        assert np.array_equal(ops.K.vals, -sigma * problem.A.vals)
        assert ops.work.shape == (problem.n,) and ops.target is None
        egm = StepOperators(problem, replace(config, method=EGM))
        assert egm.work is None and egm.target.shape == (problem.n + problem.m,)


def _flat_cases(rng):
    """(label, problem, eta, omegas) for the flat steps: an LP and a
    bilinear problem, each alone (omegas None) and as three stacked blocks
    at a primal weight each."""
    lp, _ = generate(RandomLpKnownOptimum(15, 30, 0.3, 4))
    bil = StandardFormLp(rng.standard_normal(10), random_sparse(6, 10, 0.5, rng),
                         rng.standard_normal(6), nonneg=False)
    omegas = np.array([0.5, 1.0, 2.0])
    cases = []
    for label, problem in (("lp", lp), ("bilinear", bil)):
        eta = 0.9 / power_method_sigma_max(problem.A)
        stack = StandardFormLp(np.tile(problem.c, 3),
                               SparseMatrix.block_diagonal([problem.A] * 3),
                               np.tile(problem.b, 3), nonneg=problem.nonneg)
        cases += [(label, problem, eta, None), (label + "-stacked", stack, eta, omegas)]
    return cases


class TestFlatSteps:
    """PDHG starts both blocks of its output with one addition on the flat
    vectors, and EGM runs each half-step as one product with the saddle
    operator; both repeat the block-by-block references of :mod:`oracles`
    bit for bit, with one primal weight or a stack of them, from the
    operators' own buffers and from a new anchor."""

    @pytest.mark.parametrize("method", [PDHG, EGM])
    def test_steps_repeat_the_block_references(self, rng, method):
        for label, problem, eta, omegas in _flat_cases(rng):
            config = StepConfig(method, eta, omega=1.3)
            if omegas is None:
                tau, sigma = eta / 1.3, eta * 1.3
            else:
                tau = np.repeat(eta / omegas, problem.n // omegas.size)
                sigma = np.repeat(eta * omegas, problem.m // omegas.size)
            ops = StepOperators(problem, config, omegas)
            z, into = _start(problem, rng), 0
            for k in range(20):
                if k == 10:
                    # a new anchor, as after a restart
                    z, into = _view(problem, method, z.as_vector()), 0
                if method == PDHG:
                    want_next = want_target = pdhg_by_blocks(problem, z, tau, sigma)
                else:
                    want_next, want_target = egm_four_products(problem, z, tau, sigma)
                ops.buffers[into].fill(np.nan)   # stale contents must not leak
                out = _step_of(config)(problem, z, config, ops)
                assert out.next_vec is ops.buffers[into], (label, k)
                assert out.next_vec.tobytes() == want_next.tobytes(), (label, k)
                assert out.target_vec.tobytes() == want_target.tobytes(), (label, k)
                z, into = out.next, 1 - into

    def test_egm_runs_two_saddle_products(self, rng):
        _, problem, eta, _ = _flat_cases(rng)[0]
        ops = StepOperators(problem, StepConfig(EGM, eta))
        assert ops.K is None and ops.work is None
        assert ops.M.shape == (problem.n + problem.m,) * 2 and ops.M.nnz == 2 * problem.A.nnz
        pdhg = StepOperators(problem, StepConfig(PDHG, eta))
        assert pdhg.M is None and pdhg.K.nnz == problem.A.nnz
        # omega = 1: tau = sigma = eta
        for built in (ops, pdhg):
            assert np.array_equal(built.shift,
                                  np.concatenate([-(eta * problem.c), eta * problem.b]))

    def test_operators_of_another_class_problem_or_config_raise(self, rng):
        (_, lp, eta, _), (_, stack, _, omegas) = _flat_cases(rng)[:2]
        config = StepConfig(EGM, eta)
        z = _start(lp, rng)
        others = [
            StepOperators(lp, StepConfig(EGM, eta / 2)),
            StepOperators(lp, StepConfig(PDHG, eta)),
            StepOperators(stack, config, omegas),
            AdmmOperators(lp, StepConfig(ADMM, 1.0)),
        ]
        for ops in others:
            with pytest.raises(ValueError, match="built for another"):
                egm_step(lp, z, config, ops)
        egm = StepOperators(lp, config)
        with pytest.raises(ValueError, match="built for another"):
            pdhg_step(lp, z, StepConfig(PDHG, eta), egm)
        with pytest.raises(ValueError, match="built for another"):
            admm_step(lp, _start(lp, rng, ADMM), StepConfig(ADMM, 1.0), egm)
        # the operators' own problem and an equal config are accepted
        egm_step(lp, z, StepConfig(EGM, eta), egm)


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


class TestAdmmAndPpm:
    """ADMM steps through operators bound once and PPM allocates its
    output; both repeat the arithmetic of their reference."""

    def test_steps_repeat_the_reference_arithmetic(self, rng):
        lp, _ = generate(RandomLpKnownOptimum(15, 30, 0.3, 4))
        A = random_sparse(6, 10, 0.5, rng)
        bil = StandardFormLp(rng.standard_normal(10), A, rng.standard_normal(6), nonneg=False)
        config = StepConfig(ADMM, 1.3)
        ops = AdmmOperators(lp, config)
        cases = [
            (ADMM, lp, lambda z: admm_step(lp, z, config, ops),
             lambda z: _admm_reference(lp, z, config.eta)),
            (PPM_BILINEAR, bil, lambda z: ppm_bilinear_step(bil, z, 0.7),
             lambda z: (_ppm_reference(bil, z, 0.7),) * 2),
        ]
        for method, problem, step, reference in cases:
            z = _start(problem, rng, method)
            into = 0
            for k in range(30):
                if k == 15:
                    # a step from a new anchor goes into the first buffer,
                    # which holds the point it was copied from
                    z, into = _view(problem, method, z.as_vector()), 0
                want_next, want_target = reference(z)
                if method == ADMM:
                    ops.buffers[into].fill(np.nan)   # stale contents must not leak
                out = step(z)
                assert np.array_equal(out.next.as_vector(), want_next), (method, k)
                assert np.array_equal(out.target.as_vector(), want_target), (method, k)
                if method == ADMM:
                    assert out.next_vec is ops.buffers[into], k
                z, into = out.next, 1 - into

    def test_operators_of_another_problem_or_config_raise(self, rng):
        lp, _ = generate(RandomLpKnownOptimum(15, 30, 0.3, 4))
        config = StepConfig(ADMM, 1.3)
        z = _start(lp, rng, ADMM)
        with pytest.raises(ValueError, match="built for another"):
            admm_step(lp, z, StepConfig(ADMM, 2.0), AdmmOperators(lp, config))
        with pytest.raises(ValueError, match="built for another"):
            admm_step(lp, z, config, AffineProjector(lp.A, lp.b))
        with pytest.raises(ValueError, match="for ADMM"):
            AdmmOperators(lp, StepConfig(PDHG, 0.5))

    def test_operators_hold_the_scaled_data(self):
        lp, _ = generate(RandomLpKnownOptimum(15, 30, 0.3, 4))
        config = StepConfig(ADMM, 1.3)
        admm = AdmmOperators(lp, config)
        assert np.array_equal(admm.c_eta, lp.c / config.eta)
        assert admm.target.shape == (3 * lp.n,) and admm.y_eta.shape == (lp.n,)
        assert admm.projector.factor is NormalFactor.of(lp.A)

    def test_restarted_ppm_factors_once_per_matrix_and_shift(self, monkeypatch):
        calls = [0]
        real_splu = steps.spla.splu

        def splu(*args, **kwargs):
            calls[0] += 1
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(steps.spla, "splu", splu)
        # a 3x3 diagonal's factor is applied as its inverse, a 50x50 one's
        # stays a sparse LU
        for sigmas in ((0.3, 0.8, 1.5), tuple(np.linspace(0.3, 1.5, 50))):
            problem, _ = generate(DiagonalBilinear(sigmas))
            k = len(sigmas)
            z0 = SaddlePoint(np.ones(k), np.ones(k))
            calls[0] = 0
            for eta in (0.7, 0.7, 2.0):
                res = run_restarted(problem, SolveOptions(StepConfig(PPM_BILINEAR, eta),
                                                          RestartScheme.adaptive(), kkt_tol=1e-8),
                                    z0=z0)
                assert res.iterations > 1
                factor = NormalFactor.of(problem.A, 1.0 / (eta * eta))
                assert (factor.inverse is None) == (k == 50)
            assert calls == [2], k


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
