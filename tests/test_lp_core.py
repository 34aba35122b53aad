import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from restartlp import (
    SaddlePoint,
    SparseMatrix,
    StandardFormLp,
    power_method_sigma_max,
    residuals,
)
from restartlp import lp_core
from restartlp.ingest import RandomLpKnownOptimum, generate

from conftest import feasible_point, random_sparse
from oracles import KktSystem, NormSpec, gradient_field, kkt_error, lagrangian, norm_value


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

    def test_nonzeros_are_held_once(self, rng):
        # one CSR layout is 12 bytes per nonzero (8-byte values, int32
        # indices) and a scaled copy adds 8 for its values; building both
        # peaks near 28, and a second, column-ordered layout of each would
        # take the peak to about 56
        m, n, nnz = 500, 1000, 50_000
        rows, cols = np.divmod(rng.choice(m * n, size=nnz, replace=False), n)
        vals = rng.standard_normal(nnz)
        d1, d2 = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            A = SparseMatrix(m, n, rows, cols, vals)
            S = A.scaled(d1, d2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert A.nnz == S.nnz == nnz
        assert (peak - base) / nnz < 36.0, (peak - base) / nnz


class TestIndexWidth:
    """The layout holds int32 indices when the sizes fit; the products and
    the entries are those of the int64 layout."""

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
            assert A._csr.indices.dtype == dtype and A._csr.indptr.dtype == dtype
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


def _csr(A):
    """A's layout as a public ``csr_array``: ``@`` with it and with its
    ``.T`` runs scipy's CSR and CSC kernels."""
    return sp.csr_array((A.vals, A.cols, A._csr.indptr), shape=A.shape)


class TestProductKernel:
    """matvec / rmatvec call scipy's CSR and CSC kernels directly over the
    one stored layout; the products must equal ``csr_array @ v`` and
    ``csr_array.T @ w`` bit for bit."""

    def test_bit_identical_to_operator(self, rng):
        for label, A in _kernel_cases(rng):
            v = rng.standard_normal(A.n_cols)
            w = rng.standard_normal(A.n_rows)
            assert np.array_equal(A.matvec(v), _csr(A) @ v), label
            assert np.array_equal(A.rmatvec(w), _csr(A).T @ w), label

    def test_scaled_matrix_shares_the_index_arrays(self, rng):
        A = random_sparse(30, 45, 0.2, rng)
        S = A.scaled(rng.uniform(0.5, 2.0, 30), rng.uniform(0.5, 2.0, 45))
        assert np.shares_memory(S._csr.indices, A._csr.indices)
        assert np.shares_memory(S._csr.indptr, A._csr.indptr)
        # one new value array, read by both products
        assert S._adj_vals is S.vals and not np.shares_memory(S.vals, A.vals)

    def test_out_is_filled_and_returned(self, rng):
        A = random_sparse(12, 9, 0.4, rng)
        v, w = rng.standard_normal(9), rng.standard_normal(12)
        out = np.zeros(12)
        assert A.matvec(v, out=out) is out
        assert np.array_equal(out, _csr(A) @ v)
        out_t = np.zeros(9)
        assert A.rmatvec(w, out_t) is out_t
        assert np.array_equal(out_t, _csr(A).T @ w)
        # a slice of a larger buffer works as the output
        big = np.zeros(30)
        A.matvec(v, out=big[5:17])
        assert np.array_equal(big[5:17], _csr(A) @ v) and not big[:5].any() and not big[17:].any()

    def test_product_adds_into_out(self, rng):
        # integer data keep every sum exact, so out + A v is compared bit for
        # bit whatever order the kernel sums in
        A = SparseMatrix.from_dense(rng.integers(-3, 4, (12, 9)) * (rng.random((12, 9)) < 0.4))
        v, w = rng.integers(-5, 6, 9).astype(float), rng.integers(-5, 6, 12).astype(float)
        for product, layout, vec, size in ((A.matvec, _csr(A), v, 12), (A.rmatvec, _csr(A).T, w, 9)):
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
        # each product's values are multiplied once, then summed as usual
        csr = _csr(A)
        assert np.array_equal(K.matvec(v), sp.csr_array(
            (-0.3 * csr.data, csr.indices, csr.indptr), shape=csr.shape) @ v)
        assert np.array_equal(K.rmatvec(w), sp.csr_array(
            (1.7 * csr.data, csr.indices, csr.indptr), shape=csr.shape).T @ w)
        assert np.allclose(K.matvec(v), -0.3 * A.matvec(v), rtol=1e-14, atol=1e-14)
        assert np.allclose(K.rmatvec(w), 1.7 * A.rmatvec(w), rtol=1e-14, atol=1e-14)
        # only the values are copied
        assert np.shares_memory(K._csr.indices, A._csr.indices)
        assert np.shares_memory(K._csr.indptr, A._csr.indptr)
        assert not np.shares_memory(K.vals, A.vals)
        assert not np.shares_memory(K._adj_vals, A.vals)

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
        # a scipy build without the private kernels runs csr_array @ and
        # csc_array @ over the same layout
        cases = _kernel_cases(rng)
        base = random_sparse(30, 45, 0.2, rng)
        with monkeypatch.context() as patch:
            patch.setattr(lp_core, "_INT32_MAX", 0)
            wide = SparseMatrix(30, 45, base.rows, base.cols, base.vals)
        assert wide._csr.indices.dtype == np.int64
        cases += [("int64 indices", wide),
                  ("block diagonal", SparseMatrix.block_diagonal([base] * 3)),
                  ("per-column scale", base.scaled_products(-rng.uniform(0.5, 2.0, 30),
                                                            rng.uniform(0.5, 2.0, 45))),
                  ("saddle operator", base.saddle_products(-0.3, rng.uniform(0.5, 2.0, 45)))]
        vecs = [(rng.standard_normal(A.n_cols), rng.standard_normal(A.n_rows)) for _, A in cases]
        want = [(A.matvec(v), A.rmatvec(w)) for (_, A), (v, w) in zip(cases, vecs)]
        monkeypatch.setattr(lp_core, "_csr_matvec", lp_core._matvec_by_operator)
        monkeypatch.setattr(lp_core, "_csc_matvec", lp_core._rmatvec_by_operator)
        for (label, A), (v, w), (mv, rmv) in zip(cases, vecs, want):
            out = np.zeros(A.n_rows)
            assert A.matvec(v, out=out).tobytes() == mv.tobytes(), label
            out_t = np.zeros(A.n_cols)
            assert A.rmatvec(w, out_t).tobytes() == rmv.tobytes(), label
            assert A.rmatvec(w).tobytes() == rmv.tobytes(), label
            # the fallbacks add into out too
            out = np.ones(A.n_rows)
            assert np.allclose(A.matvec(v, out=out), 1.0 + mv, rtol=1e-14, atol=1e-14), label
            out_t = np.ones(A.n_cols)
            assert np.allclose(A.rmatvec(w, out_t), 1.0 + rmv, rtol=1e-14, atol=1e-14), label


class TestSaddleProducts:
    """The saddle operator M = [[0, t A'], [s A, 0]] runs both scaled
    products as one: each row holds its lone product's row, in order."""

    @staticmethod
    def _scales(A, rng):
        # one scale per product, and one per row and per column of A
        return [(-0.3, 1.7), (-rng.uniform(0.5, 2.0, A.n_rows), rng.uniform(0.5, 2.0, A.n_cols))]

    def test_rows_and_nnz(self, rng):
        A = random_sparse(12, 9, 0.4, rng)
        for s, t in self._scales(A, rng):
            M, K = A.saddle_products(s, t), A.scaled_products(s, t)
            assert M.shape == (21, 21) and M.nnz == 2 * A.nnz
            csr = M._csr
            for j in range(9):
                # column j of t A, in row order
                row = slice(csr.indptr[j], csr.indptr[j + 1])
                lone = np.flatnonzero(A.cols == j)
                assert np.array_equal(csr.indices[row], A.rows[lone] + 9), j
                assert csr.data[row].tobytes() == K._adj_vals[lone].tobytes(), j
            for i in range(12):
                row = slice(csr.indptr[9 + i], csr.indptr[10 + i])
                lone = slice(K._csr.indptr[i], K._csr.indptr[i + 1])
                assert np.array_equal(csr.indices[row], K._csr.indices[lone]), i
                assert csr.data[row].tobytes() == K.vals[lone].tobytes(), i
            dense = np.zeros((21, 21))
            dense[:9, 9:] = (np.diag(np.broadcast_to(t, 9)) @ A.to_dense().T)
            dense[9:, :9] = (np.diag(np.broadcast_to(s, 12)) @ A.to_dense())
            assert np.allclose(M.to_dense(), dense, rtol=1e-15, atol=0.0)
            # one layout, whose transpose product is M'
            assert M._adj_vals is M.vals
            w = rng.standard_normal(21)
            assert np.allclose(M.rmatvec(w), dense.T @ w, rtol=1e-13, atol=1e-13)
            assert csr.indices.dtype == csr.indptr.dtype == np.int32

    def test_one_product_adds_both_lone_products_bit_for_bit(self, monkeypatch, rng):
        # A with int32 and with int64 indices, each into a saddle operator
        # with int32 and with int64 indices
        narrow = random_sparse(40, 60, 0.2, rng)
        with monkeypatch.context() as patch:
            patch.setattr(lp_core, "_INT32_MAX", 0)
            wide = SparseMatrix(40, 60, narrow.rows, narrow.cols, narrow.vals)
        empty = SparseMatrix(5, 6, [0, 0, 2, 4, 4], [1, 2, 3, 5, 1], rng.standard_normal(5))
        for label, A in (("narrow", narrow), ("wide", wide), ("empty rows and columns", empty)):
            for s, t in self._scales(A, rng):
                for wide_saddle in (False, True):
                    with monkeypatch.context() as patch:
                        if wide_saddle:
                            patch.setattr(lp_core, "_INT32_MAX", 0)
                        M = A.saddle_products(s, t)
                    assert (M._csr.indices.dtype == np.int64) == wide_saddle, label
                    K = A.scaled_products(s, t)
                    z = rng.standard_normal(M.n_cols)
                    start = rng.standard_normal(M.n_rows)
                    got = M.matvec(z, start.copy())
                    want = start.copy()
                    K.rmatvec(z[A.n_cols:], want[:A.n_cols])
                    K.matvec(z[:A.n_cols], want[A.n_cols:])
                    assert got.tobytes() == want.tobytes(), label

    def test_bad_input_raises(self, rng):
        A = random_sparse(12, 9, 0.4, rng)
        M = A.saddle_products(-0.3, 1.7)
        with pytest.raises(ValueError, match="dimension"):
            M.matvec(np.ones(9))
        with pytest.raises(ValueError, match="dimension"):
            M.matvec(np.ones(12), out=np.zeros(21))
        for bad in (np.zeros(12), np.zeros(21, dtype=np.float32), [0.0] * 21):
            with pytest.raises(ValueError, match=r"out must be a writeable float64 array of shape \(21,\)"):
                M.matvec(np.ones(21), out=bad)
        # a per-row or per-column scale of the wrong length, too short or
        # too long
        for s, t in ((np.ones(9), 1.0), (np.ones(13), 1.0), (1.0, np.ones(12)),
                     (1.0, np.ones(10)), (1.0, np.ones(8))):
            with pytest.raises(ValueError):
                A.saddle_products(s, t)


class TestBlockDiagonal:
    """A block-diagonal matrix of copies of A or of different matrices,
    with a scale per row and per column, repeats the products of each
    block bit for bit."""

    K = 3

    @staticmethod
    def _blocks(vec, k):
        return np.split(vec, k)

    def test_layout_and_products(self, rng):
        A = random_sparse(12, 9, 0.4, rng)
        S = SparseMatrix.block_diagonal([A] * self.K)
        assert S.shape == (36, 27) and S.nnz == 3 * A.nnz
        assert np.array_equal(S.to_dense(), sp.block_diag([A.to_dense()] * 3).toarray())
        v, w = rng.standard_normal(27), rng.standard_normal(36)
        start_v, start_w = rng.standard_normal(36), rng.standard_normal(27)
        got = S.matvec(v), S.rmatvec(w), S.matvec(v, start_v.copy()), S.rmatvec(w, start_w.copy())
        for i in range(self.K):
            vi, wi = self._blocks(v, 3)[i], self._blocks(w, 3)[i]
            want = (A.matvec(vi), A.rmatvec(wi), A.matvec(vi, self._blocks(start_v, 3)[i].copy()),
                    A.rmatvec(wi, self._blocks(start_w, 3)[i].copy()))
            for stacked, lone in zip(got, want):
                assert np.array_equal(self._blocks(stacked, 3)[i], lone), i

    def test_copies_hold_the_arrays_of_shifted_copies(self, rng):
        # k copies of A hold the arrays of A's entries shifted by whole
        # blocks, built as one matrix
        A = random_sparse(12, 9, 0.4, rng)
        shift = np.arange(self.K)[:, None]
        want = SparseMatrix(12 * self.K, 9 * self.K, (A.rows + 12 * shift).ravel(),
                            (A.cols + 9 * shift).ravel(), np.tile(A.vals, self.K))
        got = SparseMatrix.block_diagonal([A] * self.K)
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got._csr, name), getattr(want._csr, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_different_matrices(self, rng):
        mats = [random_sparse(m, n, 0.5, rng) for m, n in ((3, 5), (7, 2), (4, 4), (1, 6))]
        S = SparseMatrix.block_diagonal(mats)
        assert S.shape == (15, 17) and S.nnz == sum(A.nnz for A in mats)
        assert np.array_equal(S.to_dense(), sp.block_diag([A.to_dense() for A in mats]).toarray())
        v, w = rng.standard_normal(17), rng.standard_normal(15)
        v_at = np.cumsum([A.n_cols for A in mats])[:-1]
        w_at = np.cumsum([A.n_rows for A in mats])[:-1]
        products = zip(np.split(S.matvec(v), w_at), np.split(S.rmatvec(w), v_at))
        for A, vi, wi, (mv, rmv) in zip(mats, np.split(v, v_at), np.split(w, w_at), products):
            assert mv.tobytes() == A.matvec(vi).tobytes()
            assert rmv.tobytes() == A.rmatvec(wi).tobytes()

    def test_one_block_is_a_copy(self, rng):
        A = random_sparse(5, 7, 0.5, rng)
        one = SparseMatrix.block_diagonal([A])
        v, w = rng.standard_normal(7), rng.standard_normal(5)
        assert one is not A and not np.shares_memory(one.vals, A.vals)
        assert np.array_equal(one.matvec(v), A.matvec(v))
        assert np.array_equal(one.rmatvec(w), A.rmatvec(w))

    def test_per_row_and_per_column_scales(self, rng):
        A = random_sparse(12, 9, 0.4, rng)
        sigmas, taus = rng.uniform(0.1, 3.0, 3), rng.uniform(0.1, 3.0, 3)
        K = SparseMatrix.block_diagonal([A] * 3).scaled_products(np.repeat(-sigmas, 12),
                                                                 np.repeat(taus, 9))
        v, w = rng.standard_normal(27), rng.standard_normal(36)
        for i in range(3):
            lone = A.scaled_products(-sigmas[i], taus[i])
            assert np.array_equal(self._blocks(K.matvec(v), 3)[i],
                                  lone.matvec(self._blocks(v, 3)[i]))
            assert np.array_equal(self._blocks(K.rmatvec(w), 3)[i],
                                  lone.rmatvec(self._blocks(w, 3)[i]))
        # diag(s) A and diag(t) A' on a matrix of one block
        s, t = rng.uniform(0.5, 2.0, 12), rng.uniform(0.5, 2.0, 9)
        D = A.scaled_products(s, t)
        dense = A.to_dense()
        assert np.allclose(D.matvec(v[:9]), s * (dense @ v[:9]), rtol=1e-14, atol=1e-14)
        assert np.allclose(D.rmatvec(w[:12]), t * (dense.T @ w[:12]), rtol=1e-14, atol=1e-14)
        assert np.shares_memory(D._csr.indices, A._csr.indices)
        for s, t in ((np.ones(9), 1.0), (np.ones(13), 1.0), (1.0, np.ones(12)),
                     (1.0, np.ones(10)), (1.0, np.ones(8))):
            with pytest.raises(ValueError):
                A.scaled_products(s, t)

    def test_fallback_products_equal_the_kernel_products(self, rng, monkeypatch):
        # a scipy build without the private kernels runs csr_array @ and
        # csc_array @; the stacking's exactness rests on each entry summing
        # in stored order on that path too
        A = random_sparse(20, 30, 0.3, rng)
        S = SparseMatrix.block_diagonal([A] * 4)
        v, w = rng.standard_normal(120), rng.standard_normal(80)
        start = rng.standard_normal(80)
        kernel = [(A.matvec(vi), A.rmatvec(wi)) for vi, wi in zip(np.split(v, 4), np.split(w, 4))]
        monkeypatch.setattr(lp_core, "_csr_matvec", lp_core._matvec_by_operator)
        monkeypatch.setattr(lp_core, "_csc_matvec", lp_core._rmatvec_by_operator)
        stacked = np.split(S.matvec(v), 4), np.split(S.rmatvec(w), 4)
        added = np.split(S.matvec(v, start.copy()), 4)
        for i, (vi, wi, si) in enumerate(zip(np.split(v, 4), np.split(w, 4), np.split(start, 4))):
            assert np.array_equal(A.matvec(vi), kernel[i][0]), i
            assert np.array_equal(stacked[0][i], kernel[i][0]), i
            assert np.array_equal(A.rmatvec(wi), kernel[i][1]), i
            assert np.array_equal(stacked[1][i], kernel[i][1]), i
            assert np.array_equal(added[i], A.matvec(vi, si.copy())), i


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

    def test_flat_norm_equals_numpy(self, rng):
        # the KKT residuals, the driver's radii and the refinements' stopping
        # tests read _norm where np.linalg.norm stood: the same bits on
        # every input
        tiny = np.nextafter(0.0, 1.0)
        cases = [np.empty(0), np.array([-3.0]),
                 np.array([tiny, -3.0 * tiny]),       # squares underflow to 0
                 np.array([1e-160, -2e-160, 3e-155]),  # subnormal squares
                 np.array([1e200, 1.0]),               # the square overflows
                 np.array([1.0, np.nan, 2.0]), np.array([np.inf, -np.inf])]
        cases += [scale * rng.standard_normal(n)
                  for n in (1, 2, 7, 200, 4001) for scale in (1e-150, 1.0, 1e150)]
        # both warn alike on the overflowing and the infinite cases
        with np.errstate(over="ignore", invalid="ignore"):
            for v in cases:
                got, want = lp_core._norm(v), np.linalg.norm(v)
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), v
            assert lp_core._norm(np.array([1e200, 1.0])) == math.inf

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
        # no stored value, or stored values that are all zero: A'A v is 0
        # from every start
        for A in (SparseMatrix(3, 3, [], [], []),
                  SparseMatrix(3, 3, [0, 2], [1, 0], [0.0, -0.0])):
            with pytest.raises(ValueError, match="all-zero"):
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
