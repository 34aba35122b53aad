import math

import numpy as np
import pytest

from restartlp import (
    NormSpec,
    SaddlePoint,
    SparseMatrix,
    StandardFormLp,
    gradient_field,
    lagrangian,
    norm_value,
    power_method_sigma_max,
    residuals,
)
from restartlp.ingest import RandomLpKnownOptimum, generate

from conftest import feasible_point, random_sparse
from oracles import KktSystem, kkt_error


def small_lp(c, a, b, nonneg=True):
    A = SparseMatrix.from_dense(np.atleast_2d(np.asarray(a, dtype=float)))
    return StandardFormLp(np.atleast_1d(np.asarray(c, dtype=float)), A,
                          np.atleast_1d(np.asarray(b, dtype=float)), nonneg=nonneg)


class TestSparseMatrix:
    def test_identity_matvec(self):
        A = SparseMatrix(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        assert np.array_equal(A.matvec([3.0, -1.0]), [3.0, -1.0])

    def test_hand_product(self):
        A = SparseMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        assert np.array_equal(A.matvec([1.0, 1.0]), [3.0, 3.0])

    def test_empty_matrix(self):
        A = SparseMatrix(2, 2, [], [], [])
        assert np.array_equal(A.matvec([5.0, 5.0]), [0.0, 0.0])
        assert np.array_equal(A.rmatvec([1.0, 2.0]), [0.0, 0.0])

    def test_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SparseMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0])
        # twins apart in the input, between pairs that share a row or a column
        with pytest.raises(ValueError, match="duplicate"):
            SparseMatrix(3, 3, [2, 0, 2, 1, 2], [1, 1, 0, 1, 1], [1.0, 2.0, 3.0, 4.0, 5.0])
        SparseMatrix(3, 3, [2, 0, 2, 1, 1], [1, 1, 0, 1, 2], [1.0, 2.0, 3.0, 4.0, 5.0])

    def test_index_range_checked(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, [0, 2], [0, 0], [1.0, 1.0])

    def test_dimension_mismatch(self):
        A = SparseMatrix.from_dense([[1.0, 2.0]])
        with pytest.raises(ValueError):
            A.matvec([1.0])
        with pytest.raises(ValueError):
            A.rmatvec([1.0, 2.0])

    def test_adjoint_consistency(self, rng):
        # <Av, w> == <v, A'w> up to roundoff, for random sparse A
        for _ in range(25):
            m, n = rng.integers(1, 30, size=2)
            A = random_sparse(m, n, 0.3, rng)
            v = rng.standard_normal(n)
            w = rng.standard_normal(m)
            left = A.matvec(v) @ w
            right = v @ A.rmatvec(w)
            assert abs(left - right) <= 1e-13 * max(1.0, abs(left))

    def test_deterministic_products(self, rng):
        A = random_sparse(40, 60, 0.2, rng)
        v = rng.standard_normal(60)
        out1 = A.matvec(v)
        out2 = A.matvec(v.copy())
        assert np.array_equal(out1, out2)


class TestLagrangianAndGradient:
    def test_gradient_bilinear_example(self):
        # data (c=0, b=0, A=[1]): F(z) = (c - A'y, Ax - b) = (-1, 1) at (1, 1)
        p = small_lp(0.0, 1.0, 0.0, nonneg=False)
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))
        assert np.allclose(gradient_field(p, z), [-1.0, 1.0])

    def test_gradient_zero_at_optimum(self):
        p = small_lp(1.0, 1.0, 1.0)
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))
        assert np.allclose(gradient_field(p, z), [0.0, 0.0])

    def test_lagrangian_examples(self):
        p = small_lp(0.0, 1.0, 0.0, nonneg=False)
        assert lagrangian(p, SaddlePoint(np.array([1.0]), np.array([1.0]))) == -1.0
        assert lagrangian(p, SaddlePoint(np.array([0.0]), np.array([0.0]))) == 0.0
        p2 = small_lp(1.0, 1.0, 1.0)
        assert lagrangian(p2, SaddlePoint(np.array([2.0]), np.array([3.0]))) == -1.0


class TestKkt:
    def test_optimal_pair_zero_error(self):
        p = small_lp(1.0, 1.0, 1.0)
        sys_ = KktSystem.from_problem(p)
        res = kkt_error(sys_, SaddlePoint(np.array([1.0]), np.array([1.0])))
        assert res.kkt_error == 0.0

    def test_hand_value_at_origin(self):
        # h - Kz = (0, -1, 1, -1, 0) at z = 0, positive part norm 1
        p = small_lp(1.0, 1.0, 1.0)
        sys_ = KktSystem.from_problem(p)
        res = kkt_error(sys_, SaddlePoint(np.array([0.0]), np.array([0.0])))
        assert res.kkt_error == pytest.approx(1.0, abs=0)
        assert res.primal_residual == pytest.approx(1.0)
        assert res.dual_residual == 0.0
        assert res.gap_residual == 0.0

    def test_cross_identity_feasible_x(self, rng):
        # for x >= 0: kkt^2 = primal^2 + dual^2 + gap^2
        for _ in range(200):
            m, n = rng.integers(1, 12, size=2)
            A = random_sparse(m, n, 0.5, rng)
            p = StandardFormLp(rng.standard_normal(n), A, rng.standard_normal(m))
            z = feasible_point(p, rng)
            res = residuals(p, z)
            rhs = math.sqrt(res.primal_residual ** 2 + res.dual_residual ** 2
                            + res.gap_residual ** 2)
            assert res.kkt_error == pytest.approx(rhs, rel=1e-12, abs=1e-14)

    def test_block_identity_direct_vs_system(self, rng):
        # the stacked (h - Kz)^+ matches the matrix-free residual path
        for _ in range(1000):
            m, n = rng.integers(1, 10, size=2)
            A = random_sparse(m, n, 0.4, rng)
            p = StandardFormLp(rng.standard_normal(n), A, rng.standard_normal(m))
            z = SaddlePoint(rng.standard_normal(n), rng.standard_normal(m))
            sys_ = KktSystem.from_problem(p)
            a = kkt_error(sys_, z)
            d = residuals(p, z)
            assert a.kkt_error == pytest.approx(d.kkt_error, rel=1e-12, abs=1e-13)
            assert a.primal_residual == pytest.approx(d.primal_residual, rel=1e-12, abs=1e-13)
            assert a.dual_residual == pytest.approx(d.dual_residual, rel=1e-12, abs=1e-13)
            assert a.gap_residual == pytest.approx(d.gap_residual, rel=1e-12, abs=1e-13)

    def test_zero_iff_optimal_on_generated(self, rng):
        problem, opt = generate(RandomLpKnownOptimum(8, 16, 0.5, 11))
        assert residuals(problem, opt).kkt_error <= 1e-12
        for _ in range(50):
            z = feasible_point(problem, rng)
            if np.linalg.norm(z.as_vector() - opt.as_vector()) > 1e-6:
                assert residuals(problem, z).kkt_error > 0


class TestNorms:
    def test_euclidean(self):
        p = small_lp(0.0, 1.0, 0.0)
        z = SaddlePoint(np.array([3.0]), np.array([4.0]))
        assert norm_value(NormSpec.euclidean(), p, z) == 5.0

    def test_pdhg_m_example(self):
        # on the L(x, y) = xy toy with eta = 0.2, |(1,1)|_M^2 = 1 - 0.4 + 1
        from restartlp import TwoDimToy, generate

        p, _ = generate(TwoDimToy())
        z = SaddlePoint(np.array([1.0]), np.array([1.0]))
        val = norm_value(NormSpec.pdhg(0.2), p, z)
        assert val == pytest.approx(math.sqrt(1.6))

    def test_admm_m_example(self):
        class Point:
            x_v = np.array([2.0])
            y = np.array([0.0])

        val = norm_value(NormSpec.admm(1.0), None, Point())
        assert val == 2.0

    def test_pdhg_norm_sandwich(self, rng):
        # (1 - eta smax)|z|^2 <= |z|_M^2 <= (1 + eta smax)|z|^2 for eta smax <= 1/2
        for _ in range(10):
            m, n = rng.integers(2, 15, size=2)
            A = random_sparse(m, n, 0.4, rng)
            p = StandardFormLp(np.zeros(n), A, np.zeros(m))
            smax = power_method_sigma_max(A, tol=1e-10, max_iters=20000, seed=3)
            eta = 0.5 / smax
            spec = NormSpec.pdhg(eta)
            for _ in range(100):
                z = SaddlePoint(rng.standard_normal(n), rng.standard_normal(m))
                e2 = np.linalg.norm(z.as_vector()) ** 2
                v2 = norm_value(spec, p, z) ** 2
                assert (1 - eta * smax) * e2 <= v2 * (1 + 1e-9) + 1e-12
                assert v2 <= (1 + eta * smax) * e2 * (1 + 1e-9) + 1e-12

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            NormSpec.pdhg(-1.0)
        with pytest.raises(ValueError):
            NormSpec("pdhg_m", eta=1.0, omega=0.0)


class TestPowerMethod:
    def test_diagonal(self):
        A = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
        assert power_method_sigma_max(A, tol=1e-6, seed=0) == pytest.approx(2.0, rel=1e-4)

    def test_identity_exact(self):
        A = SparseMatrix.from_dense(np.eye(5))
        assert power_method_sigma_max(A, seed=1) == 1.0

    def test_matches_dense_svd(self, rng):
        dense = rng.standard_normal((20, 30))
        A = SparseMatrix.from_dense(dense)
        ref = np.linalg.svd(dense, compute_uv=False)[0]
        est = power_method_sigma_max(A, tol=1e-12, max_iters=50000, seed=7)
        assert est == pytest.approx(ref, rel=1e-6)

    def test_zero_matrix_rejected(self):
        A = SparseMatrix(3, 3, [], [], [])
        with pytest.raises(ValueError):
            power_method_sigma_max(A)

    def test_nonconvergence_warns(self):
        A = SparseMatrix.from_dense(np.diag([1.0, 0.999999]))
        with pytest.warns(RuntimeWarning):
            power_method_sigma_max(A, tol=1e-16, max_iters=3, seed=0)
