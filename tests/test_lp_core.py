import math

import numpy as np
import pytest
import scipy.sparse as sp

from restartlp import (
    NormSpec,
    SaddlePoint,
    SparseMatrix,
    StandardFormLp,
    gradient_field,
    norm_value,
    power_method_sigma_max,
    residuals,
)
from restartlp import lp_core
from restartlp.ingest import RandomLpKnownOptimum, generate

from conftest import feasible_point, random_sparse
from oracles import KktSystem, kkt_error, lagrangian


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


class TestIndexWidth:
    """The layouts hold int32 indices when the sizes fit; the products and
    the entries are those of the int64 layouts."""

    def _pair(self, monkeypatch, rng, m, n):
        flat = rng.choice(m * n, size=max(1, m * n // 5), replace=False)
        rows, cols = np.divmod(flat, n)
        vals = rng.standard_normal(flat.size)
        narrow = SparseMatrix(m, n, rows, cols, vals)
        with monkeypatch.context() as patch:
            patch.setattr(lp_core, "_INT32_MAX", 0)
            wide = SparseMatrix(m, n, rows, cols, vals)
        return narrow, wide

    @pytest.mark.parametrize("shape", [(10, 20), (200, 400), (37, 3)])
    def test_int32_layouts_give_int64_results(self, monkeypatch, rng, shape):
        m, n = shape
        narrow, wide = self._pair(monkeypatch, rng, m, n)
        for A, dtype in ((narrow, np.int32), (wide, np.int64)):
            for layout in (A._fwd, A._adj):
                assert layout.indices.dtype == dtype and layout.indptr.dtype == dtype
        for name in ("rows", "cols", "vals"):
            assert np.array_equal(getattr(narrow, name), getattr(wide, name)), name
        d1, d2 = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, n)
        pairs = [(narrow, wide), (narrow.scaled(d1, d2), wide.scaled(d1, d2)),
                 (narrow.scaled_products(-0.3, 0.7), wide.scaled_products(-0.3, 0.7))]
        for a, b in pairs:
            for _ in range(5):
                v, w = rng.standard_normal(n), rng.standard_normal(m)
                assert a.matvec(v).tobytes() == b.matvec(v).tobytes()
                assert a.rmatvec(w).tobytes() == b.rmatvec(w).tobytes()
        assert (narrow.gram() != wide.gram()).nnz == 0


def _kernel_cases(rng):
    """(label, matrix) pairs covering the shapes the products must handle."""
    cases = [(f"{m}x{n}", random_sparse(m, n, 0.1, rng)) for m, n in ((10, 20), (50, 100), (200, 400))]
    # rows 1 and 3 and columns 0 and 4 hold no entry
    cases.append(("empty rows and columns",
                  SparseMatrix(5, 6, [0, 0, 2, 4, 4], [1, 2, 3, 5, 1], rng.standard_normal(5))))
    cases.append(("0x7", SparseMatrix(0, 7, [], [], [])))
    cases.append(("7x0", SparseMatrix(7, 0, [], [], [])))
    base = random_sparse(30, 45, 0.2, rng)
    cases.append(("scaled", base.scaled(rng.uniform(0.5, 2.0, 30), rng.uniform(0.5, 2.0, 45))))
    return cases


class TestProductKernel:
    """matvec / rmatvec call scipy's CSR kernel directly; the products must
    equal the ``@`` of the stored layouts bit for bit."""

    def test_bit_identical_to_operator(self, rng):
        for label, A in _kernel_cases(rng):
            v = rng.standard_normal(A.n_cols)
            w = rng.standard_normal(A.n_rows)
            assert np.array_equal(A.matvec(v), A._fwd @ v), label
            assert np.array_equal(A.rmatvec(w), A._adj @ w), label

    def test_scaled_matrix_shares_the_index_arrays(self, rng):
        A = random_sparse(30, 45, 0.2, rng)
        S = A.scaled(rng.uniform(0.5, 2.0, 30), rng.uniform(0.5, 2.0, 45))
        assert np.shares_memory(S._fwd.indices, A._fwd.indices)
        assert np.shares_memory(S._adj.indptr, A._adj.indptr)

    def test_out_is_filled_and_returned(self, rng):
        A = random_sparse(12, 9, 0.4, rng)
        v, w = rng.standard_normal(9), rng.standard_normal(12)
        out = np.zeros(12)
        assert A.matvec(v, out=out) is out
        assert np.array_equal(out, A._fwd @ v)
        out_t = np.zeros(9)
        assert A.rmatvec(w, out_t) is out_t
        assert np.array_equal(out_t, A._adj @ w)
        # a slice of a larger buffer works as the output
        big = np.zeros(30)
        A.matvec(v, out=big[5:17])
        assert np.array_equal(big[5:17], A._fwd @ v) and not big[:5].any() and not big[17:].any()

    def test_product_adds_into_out(self, rng):
        # integer data keep every sum exact, so out + A v is compared bit for
        # bit whatever order the kernel sums in
        A = SparseMatrix.from_dense(rng.integers(-3, 4, (12, 9)) * (rng.random((12, 9)) < 0.4))
        v, w = rng.integers(-5, 6, 9).astype(float), rng.integers(-5, 6, 12).astype(float)
        for product, layout, vec, size in ((A.matvec, A._fwd, v, 12), (A.rmatvec, A._adj, w, 9)):
            start = rng.integers(-9, 10, size).astype(float)
            out = start.copy()
            assert product(vec, out) is out
            assert np.array_equal(out, start + layout @ vec)
            product(vec, out)     # a second product adds again
            assert np.array_equal(out, start + 2 * (layout @ vec))
            stale = np.full(size, np.nan)   # nothing clears the output
            assert np.isnan(product(vec, stale)).all()

    def test_row_sum_starts_from_out(self):
        # the kernel's order: 2^53 + 1 + 1 rounds to 2^53 at each addition,
        # where adding the finished row sum would give 2^53 + 2
        A = SparseMatrix.from_dense([[1.0, 1.0]])
        big = 2.0 ** 53
        assert A.matvec(np.ones(2), np.array([big]))[0] == big
        assert big + A.matvec(np.ones(2))[0] == big + 2.0 != big

    def test_scaled_products(self, rng):
        A = random_sparse(12, 9, 0.4, rng)
        K = A.scaled_products(-0.3, 1.7)
        v, w = rng.standard_normal(9), rng.standard_normal(12)
        # each layout's values are multiplied once, then summed as usual
        fwd, adj = A._fwd, A._adj
        assert np.array_equal(K.matvec(v), sp.csr_array(
            (-0.3 * fwd.data, fwd.indices, fwd.indptr), shape=fwd.shape) @ v)
        assert np.array_equal(K.rmatvec(w), sp.csr_array(
            (1.7 * adj.data, adj.indices, adj.indptr), shape=adj.shape) @ w)
        assert np.allclose(K.matvec(v), -0.3 * A.matvec(v), rtol=1e-14, atol=1e-14)
        assert np.allclose(K.rmatvec(w), 1.7 * A.rmatvec(w), rtol=1e-14, atol=1e-14)
        # only the values are copied
        assert np.shares_memory(K._fwd.indices, A._fwd.indices)
        assert np.shares_memory(K._adj.indptr, A._adj.indptr)
        assert not np.shares_memory(K._fwd.data, A._fwd.data)

    @staticmethod
    def _read_only(size):
        out = np.zeros(size)
        out.flags.writeable = False
        return out

    @pytest.mark.parametrize("make", [
        lambda k: np.zeros(3), lambda k: np.zeros(k + 1), lambda k: np.zeros((k, 1)),
        lambda k: np.zeros(k, dtype=np.float32), lambda k: np.zeros(k, dtype=np.int64),
        lambda k: [0.0] * k, lambda k: (0.0,) * k, _read_only,
        lambda k: np.zeros(k, dtype=">f8"),
    ], ids=["short", "long", "2-d", "float32", "int64", "list", "tuple", "read-only",
            "big-endian"])
    def test_bad_out_raises(self, rng, make):
        A = random_sparse(12, 9, 0.4, rng)
        with pytest.raises(ValueError) as err:
            A.matvec(np.ones(9), out=make(12))
        assert str(err.value) == "out must be a writeable float64 array of shape (12,)"
        with pytest.raises(ValueError) as err:
            A.rmatvec(np.ones(12), out=make(9))
        assert str(err.value) == "out must be a writeable float64 array of shape (9,)"

    def test_input_shape_still_checked(self):
        A = SparseMatrix.from_dense([[1.0, 2.0]])
        with pytest.raises(ValueError, match="dimension"):
            A.matvec([1.0], out=np.zeros(1))
        with pytest.raises(ValueError, match="dimension"):
            A.rmatvec([1.0, 2.0], out=np.zeros(2))

    def test_fallback_matches_the_kernel(self, rng, monkeypatch):
        cases = _kernel_cases(rng)
        vecs = [(rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)) for _, A in cases]
        want = [(A.matvec(v), A.rmatvec(w)) for (_, A), (v, w) in zip(cases, vecs)]
        monkeypatch.setattr(lp_core, "_csr_matvec", lp_core._matvec_by_operator)
        for (label, A), (v, w), (mv, rmv) in zip(cases, vecs, want):
            out = np.zeros(A.n_rows)
            assert np.array_equal(A.matvec(v, out=out), mv), label
            assert np.array_equal(A.rmatvec(w), rmv), label
            # the fallback adds into out too
            out = np.ones(A.n_rows)
            assert np.allclose(A.matvec(v, out=out), 1.0 + mv, rtol=1e-14, atol=1e-14), label


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

    @staticmethod
    def _count_products(A):
        """Count A's products from here on: calls[0] matvecs, calls[1]
        rmatvecs."""
        calls = [0, 0]
        matvec, rmatvec = A.matvec, A.rmatvec

        def counted(k, product):
            def call(*args, **kwargs):
                calls[k] += 1
                return product(*args, **kwargs)
            return call

        A.matvec, A.rmatvec = counted(0, matvec), counted(1, rmatvec)
        return calls

    def test_converged_estimate_is_kept(self, rng):
        A = random_sparse(15, 20, 0.3, rng)
        assert not hasattr(A, "_memo")  # construction does no extra work
        calls = self._count_products(A)
        first = power_method_sigma_max(A, seed=4)
        assert calls[0] == calls[1] > 0
        made = list(calls)
        again = power_method_sigma_max(A, seed=4)
        assert calls == made and again == first
        # another key is another estimate, bit-identical to a fresh matrix's
        other = power_method_sigma_max(A, tol=1e-8, seed=4)
        assert calls[0] > made[0]
        fresh = SparseMatrix(A.n_rows, A.n_cols, A.rows, A.cols, A.vals)
        assert other == power_method_sigma_max(fresh, tol=1e-8, seed=4)
        assert first == power_method_sigma_max(fresh, seed=4)

    def test_scaled_matrix_estimates_its_own(self, rng):
        A = random_sparse(10, 12, 0.4, rng)
        sigma = power_method_sigma_max(A)
        scaled = A.scaled(np.full(10, 2.0), np.ones(12))
        assert power_method_sigma_max(scaled) == pytest.approx(2.0 * sigma, rel=1e-3)

    def test_derived_matrices_keep_their_own_memos(self, rng):
        A = random_sparse(10, 12, 0.4, rng)
        sigma = power_method_sigma_max(A)
        kept = dict(A.memo)
        for B in (A.scaled(np.full(10, 2.0), np.ones(12)), A.scaled_products(2.0, 2.0)):
            assert not hasattr(B, "_memo")
            assert power_method_sigma_max(B) == pytest.approx(2.0 * sigma, rel=1e-3)
            assert B.derived("probe", lambda: B) is B
            assert A.memo == kept

    def test_nonconverged_estimate_warns_each_time(self):
        A = SparseMatrix.from_dense(np.diag([1.0, 0.999999]))
        calls = self._count_products(A)
        for k in (1, 2):
            with pytest.warns(RuntimeWarning):
                power_method_sigma_max(A, tol=1e-16, max_iters=3, seed=0)
            assert calls == [3 * k, 3 * k]
