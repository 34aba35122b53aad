import gc
import weakref

import numpy as np
import pytest
from scipy.optimize import linprog

from restartlp import (
    AffineProjector,
    RandomLpKnownOptimum,
    RestartScheme,
    SaddlePoint,
    SolveOptions,
    SparseMatrix,
    StandardFormLp,
    Status,
    StepConfig,
    generate,
    parse_mps,
    power_method_sigma_max,
    rescale,
    residuals,
    run_restarted,
    to_standard_form,
)
from restartlp import restarts
from restartlp.scaling import RUIZ_PASSES
from restartlp.steps import ADMM, EGM, PDHG, AdmmPoint

from conftest import random_sparse
from test_ingest import FIXTURES

PLANTED = (RandomLpKnownOptimum(20, 40, 0.3, 0), RandomLpKnownOptimum(20, 40, 0.3, 1),
           RandomLpKnownOptimum(50, 100, 0.2, 0), RandomLpKnownOptimum(50, 100, 0.2, 1))
SCHEMES = (RestartScheme.adaptive(), RestartScheme.flexible())
# A planted LP sparse enough that the LU of A A' stays smaller than a dense
# inverse (see steps.NormalFactor)
SPARSE_FACTOR = RandomLpKnownOptimum(80, 160, 0.02, 1)


def badly_scaled(m, n, density, seed):
    """Random sparse matrix with rows and columns scaled over six decades."""
    rng = np.random.default_rng(seed)
    A = random_sparse(m, n, density, rng)
    rs = 10.0 ** rng.uniform(-3, 3, m)
    cs = 10.0 ** rng.uniform(-3, 3, n)
    return SparseMatrix(m, n, A.rows, A.cols, rs[A.rows] * A.vals * cs[A.cols])


def lp_with(A, rng):
    return StandardFormLp(rng.standard_normal(A.n_cols), A, rng.standard_normal(A.n_rows))


def fresh(A):
    """A new matrix with the entries of ``A`` and an empty memo."""
    return SparseMatrix(A.n_rows, A.n_cols, A.rows, A.cols, A.vals)


def reference_factors(dense):
    """Ruiz then Pock-Chambolle on a dense array, one whole-matrix pass at a
    time: the reference for :func:`rescale`'s array work."""
    d1 = np.ones(dense.shape[0])
    d2 = np.ones(dense.shape[1])

    def root(v):
        return np.sqrt(np.where(v > 0, v, 1.0))

    for _ in range(RUIZ_PASSES):
        M = np.abs(dense) * d1[:, None] * d2[None, :]
        d1, d2 = d1 / root(M.max(axis=1)), d2 / root(M.max(axis=0))
    M = np.abs(dense) * d1[:, None] * d2[None, :]
    return d1 / root(M.sum(axis=1)), d2 / root(M.sum(axis=0))


def step_for(problem, method):
    """The step every caller of the solver uses: 0.9 / sigma_max(A), and
    for EGM L = 1.01 sigma_max(A); ADMM at eta = 1."""
    if method == ADMM:
        return StepConfig(ADMM, 1.0)
    sigma = power_method_sigma_max(problem.A)
    return StepConfig(method, 0.9 / sigma, lipschitz=1.01 * sigma if method == EGM else None)


def data_scale(problem):
    return 1.0 + np.linalg.norm(problem.b) + np.linalg.norm(problem.c)


def reported_kkt(res):
    return min(res.kkt_avg, res.kkt_last)


def original_kkt(problem, res, method):
    """KKT error of the returned point recomputed on the caller's problem.
    For ADMM the LP dual is extracted as the solver does, on the rescaled
    problem (where the multiplier is d2 y), and mapped back by d1."""
    if method != ADMM:
        return residuals(problem, res.solution).kkt_error
    scaled, d1, d2 = rescale(problem)
    lam = AffineProjector(scaled.A, scaled.b).solve_normal(
        -scaled.A.matvec(d2 * res.solution.y))
    return residuals(problem, SaddlePoint(res.solution.x_v, d1 * lam)).kkt_error


def primal_x(res, method):
    return res.solution.x_v if method == ADMM else res.solution.x


def trace_rows(res):
    return [(r.iteration, r.outer, r.inner, r.normalized_gap, r.kkt_avg, r.kkt_last,
             r.radius, r.restarted) for r in res.trace.records]


class TestRescale:
    @pytest.mark.parametrize("seed", range(4))
    def test_scaled_data_is_d1_a_d2(self, seed):
        rng = np.random.default_rng(seed)
        problem = lp_with(badly_scaled(30, 50, 0.15, seed), rng)
        scaled, d1, d2 = rescale(problem)
        dense = problem.A.to_dense()
        want = d1[:, None] * dense * d2[None, :]
        assert np.array_equal(scaled.A.to_dense(), want)
        assert np.array_equal(scaled.A._csr.T.toarray(), want.T)
        assert np.array_equal(scaled.A.vals,
                              d1[problem.A.rows] * problem.A.vals * d2[problem.A.cols])
        assert np.array_equal(scaled.b, d1 * problem.b)
        assert np.array_equal(scaled.c, d2 * problem.c)
        assert scaled.nonneg == problem.nonneg
        assert np.all(d1 > 0) and np.all(d2 > 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_factors_match_dense_reference(self, seed):
        problem = lp_with(badly_scaled(25, 40, 0.2, seed), np.random.default_rng(seed))
        _, d1, d2 = rescale(problem)
        want1, want2 = reference_factors(problem.A.to_dense())
        # only the 1-norm sums may add in another order
        np.testing.assert_allclose(d1, want1, rtol=1e-13, atol=0)
        np.testing.assert_allclose(d2, want2, rtol=1e-13, atol=0)

    def test_pattern_shared_values_new(self):
        A = badly_scaled(20, 30, 0.2, 7)
        scaled, _, _ = rescale(lp_with(A, np.random.default_rng(0)))
        assert np.shares_memory(scaled.A.cols, A.cols)
        mine, theirs = scaled.A._csr, A._csr
        assert np.shares_memory(mine.indices, theirs.indices)
        assert np.shares_memory(mine.indptr, theirs.indptr)
        assert not np.shares_memory(scaled.A.vals, A.vals)
        assert scaled.A.shape == A.shape and scaled.A.nnz == A.nnz

    @pytest.mark.parametrize("shape", [(30, 50, 0.15), (80, 40, 0.1), (1, 7, 1.0), (25, 25, 0.3)])
    def test_spectral_norm_at_most_one(self, shape):
        m, n, density = shape
        for seed in range(3):
            problem = lp_with(badly_scaled(m, n, density, seed), np.random.default_rng(seed))
            scaled, _, _ = rescale(problem)
            assert np.linalg.norm(scaled.A.to_dense(), 2) <= 1.0 + 1e-12

    def test_empty_rows_and_columns_keep_factor_one(self):
        dense = np.array([[1.0, 0.0, 2.0, 0.0],
                          [0.0, 0.0, 0.0, 0.0],
                          [300.0, 0.0, 4e-3, 0.0]])
        problem = StandardFormLp(np.ones(4), SparseMatrix.from_dense(dense), np.ones(3))
        _, d1, d2 = rescale(problem)
        assert d1[1] == 1.0
        assert d2[1] == 1.0 and d2[3] == 1.0
        assert np.all(np.delete(d1, 1) != 1.0)

    def test_repeated_calls_bit_identical(self):
        problem = lp_with(badly_scaled(40, 60, 0.1, 3), np.random.default_rng(3))
        first = rescale(problem)
        # a fresh matrix, so that the memo of the first call is not returned
        second = rescale(StandardFormLp(problem.c, fresh(problem.A), problem.b))
        assert second[0].A is not first[0].A
        for a, b in zip(first[1:], second[1:]):
            assert np.array_equal(a, b)
        assert np.array_equal(first[0].A.vals, second[0].A.vals)
        assert np.array_equal(first[0].b, second[0].b)
        assert np.array_equal(first[0].c, second[0].c)

    @pytest.mark.parametrize("A", [SparseMatrix(2, 3, [], [], []),
                                   SparseMatrix(0, 3, [], [], []),
                                   SparseMatrix(2, 3, [0, 1], [2, 0], [0.0, 0.0])],
                             ids=["all-zero", "zero-rows", "explicit-zeros"])
    @pytest.mark.parametrize("method", [PDHG, EGM, ADMM])
    def test_zero_matrix_solved_unscaled(self, A, method):
        # min c'x over x >= 0 with c >= 0 and no binding row: x = 0
        problem = StandardFormLp(np.array([1.0, 0.5, 2.0]), A, np.zeros(A.n_rows))
        res = run_restarted(problem, SolveOptions(StepConfig(method, 0.5), RestartScheme.adaptive()))
        assert res.scaling is None
        assert res.status == Status.OPTIMAL
        assert np.array_equal(primal_x(res, method), np.zeros(3))


class TestScaledSolve:
    @pytest.mark.parametrize("spec", PLANTED, ids=lambda s: f"{s.m}x{s.n}-{s.seed}")
    @pytest.mark.parametrize("method", [PDHG, EGM, ADMM])
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
    def test_results_in_caller_space(self, spec, method, scheme):
        problem, opt = generate(spec)
        step = step_for(problem, method)
        res = run_restarted(problem, SolveOptions(step, scheme, kkt_tol=1e-6,
                                                  iteration_limit=10**5))
        assert res.status == Status.OPTIMAL
        assert reported_kkt(res) <= 1e-6
        assert abs(reported_kkt(res) - original_kkt(problem, res, method)) \
            <= 1e-12 * data_scale(problem)
        f_star = float(problem.c @ opt.x)
        assert abs(problem.c @ primal_x(res, method) - f_star) <= 1e-5 * (1 + abs(f_star))
        # average and last are points of the caller's problem as well
        if method != ADMM:
            assert residuals(problem, res.average).kkt_error == pytest.approx(res.kkt_avg, rel=1e-9)
            assert residuals(problem, res.last).kkt_error == pytest.approx(res.kkt_last, rel=1e-9)

    @pytest.mark.parametrize("method", [PDHG, EGM])
    def test_eta_times_sigma_kept(self, method):
        problem, _ = generate(PLANTED[2])
        step = step_for(problem, method)
        res = run_restarted(problem, SolveOptions(step, RestartScheme.adaptive()))
        sc = res.scaling
        assert sc.sigma_max == power_method_sigma_max(problem.A)
        assert sc.sigma_max_scaled == power_method_sigma_max(rescale(problem)[0].A)
        assert sc.eta * sc.sigma_max_scaled == pytest.approx(step.eta * sc.sigma_max, rel=1e-14)

    def test_admm_keeps_eta(self):
        problem, _ = generate(PLANTED[0])
        res = run_restarted(problem, SolveOptions(StepConfig(ADMM, 0.25), RestartScheme.adaptive()))
        assert (res.scaling.sigma_max, res.scaling.sigma_max_scaled, res.scaling.eta) \
            == (None, None, 0.25)

    @pytest.mark.parametrize("spec", PLANTED[::2], ids=lambda s: f"{s.m}x{s.n}")
    @pytest.mark.parametrize("method", [PDHG, EGM, ADMM])
    def test_start_at_planted_optimum(self, spec, method):
        problem, opt = generate(spec)
        if method == ADMM:
            z0 = AdmmPoint(opt.x, opt.x.copy(), -problem.A.rmatvec(opt.y))
        else:
            z0 = opt
        res = run_restarted(problem, SolveOptions(step_for(problem, method), RestartScheme.adaptive(),
                                                  kkt_tol=0.0, iteration_limit=30),
                            z0=z0)
        first = res.trace.records[0]
        assert first.iteration == 30
        assert min(first.kkt_avg, first.kkt_last) <= 1e-11 * data_scale(problem)
        assert np.linalg.norm(primal_x(res, method) - opt.x) <= 1e-10 * (1 + np.linalg.norm(opt.x))
        start = res.anchors[0]
        assert np.allclose(start[:problem.n], opt.x, rtol=1e-15, atol=0.0)

    # ADMM's factor of A~ A~' is applied as a dense inverse on PLANTED[3]
    # and as a sparse LU on SPARSE_FACTOR; both must repeat bit for bit
    @pytest.mark.parametrize("method,spec", [(PDHG, PLANTED[3]), (EGM, PLANTED[3]),
                                             (ADMM, PLANTED[3]), (ADMM, SPARSE_FACTOR)],
                             ids=["pdhg", "egm", "admm", "admm-sparse-factor"])
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.kind)
    def test_deterministic(self, method, spec, scheme):
        problem, _ = generate(spec)
        options = SolveOptions(step_for(problem, method), scheme, kkt_tol=1e-8,
                               iteration_limit=3000, check_cadence=10)
        one = run_restarted(problem, options)
        if method == ADMM:
            factor = problem.A.memo["rescale"][0].memo[("normal_factor", 0.0)]
            assert (factor.inverse is None) == (spec is SPARSE_FACTOR)
        # on a fresh matrix, so that A~ and its sigma are computed again
        two = run_restarted(StandardFormLp(problem.c, fresh(problem.A), problem.b), options)
        assert trace_rows(one) == trace_rows(two)
        assert np.array_equal(one.solution.as_vector(), two.solution.as_vector())
        assert all(np.array_equal(a, b) for a, b in zip(one.anchors, two.anchors))

    def test_scaled_copy_kept_with_the_matrix_and_freed_with_it(self, monkeypatch):
        # the scaled problem's matrix lives in A's memo, so every solve of A
        # steps on the same one; reference counting alone must free it (and
        # the factor in its own memo) with A: no cycle may keep them alive
        refs = []

        def spy(problem):
            out = rescale(problem)
            refs.append(weakref.ref(out[0].A))
            return out

        monkeypatch.setattr(restarts, "rescale", spy)
        problem, _ = generate(PLANTED[0])
        gc.disable()
        try:
            for method in (PDHG, ADMM):
                res = run_restarted(problem, SolveOptions(step_for(problem, method),
                                                          RestartScheme.adaptive()))
                assert res.scaling is not None
            assert len(refs) == 2 and refs[0]() is refs[1]() is not None
            factor = weakref.ref(refs[0]().memo[("normal_factor", 0.0)])
            del problem, res
            assert refs[0]() is None and factor() is None
        finally:
            gc.enable()


def other_data(problem, seed):
    """Another feasible, bounded (b, c) on the same matrix: b = A x for
    x >= 0 and c = A'y + s for s >= 0."""
    rng = np.random.default_rng(seed)
    x = np.abs(rng.standard_normal(problem.n))
    y = rng.standard_normal(problem.m)
    return problem.A.matvec(x), problem.A.rmatvec(y) + np.abs(rng.standard_normal(problem.n))


class TestMatrixMemo:
    """What depends on A alone (A~ with d1 and d2, sigma estimates, A A'
    factors) is computed once per matrix and shared by its solves."""

    @pytest.mark.parametrize("method", [PDHG, EGM, ADMM])
    def test_solves_sharing_a_matrix_equal_solves_on_fresh_ones(self, method):
        problem, _ = generate(PLANTED[0])
        A = problem.A
        variants = [problem] + [StandardFormLp(c, A, b)
                                for b, c in (other_data(problem, seed) for seed in (1, 2))]

        def solve(p):
            return run_restarted(p, SolveOptions(step_for(p, method), RestartScheme.adaptive(),
                                                 iteration_limit=600))

        shared = [solve(p) for p in variants]
        assert "rescale" in A.memo
        for p, res in zip(variants, shared):
            alone = solve(StandardFormLp(p.c, fresh(A), p.b))
            assert res.status == alone.status
            assert trace_rows(res) == trace_rows(alone)
            assert np.array_equal(res.solution.as_vector(), alone.solution.as_vector())
            assert len(res.anchors) == len(alone.anchors)
            assert all(np.array_equal(a, b) for a, b in zip(res.anchors, alone.anchors))
            assert res.scaling == alone.scaling

    @pytest.mark.parametrize("method", [PDHG, EGM])
    def test_second_solve_makes_no_power_method_product(self, monkeypatch, method):
        inside, products = [False], [0]
        real_estimate = restarts.power_method_sigma_max
        real_matvec = SparseMatrix.__dict__["matvec"]

        def estimate(*args, **kwargs):
            inside[0] = True
            try:
                return real_estimate(*args, **kwargs)
            finally:
                inside[0] = False

        def matvec(self, *args, **kwargs):
            products[0] += inside[0]
            return real_matvec(self, *args, **kwargs)

        problem, _ = generate(PLANTED[1])
        config = step_for(problem, method)
        monkeypatch.setattr(restarts, "power_method_sigma_max", estimate)
        monkeypatch.setattr(SparseMatrix, "matvec", matvec)
        b, c = other_data(problem, 3)
        run_restarted(problem, SolveOptions(config, RestartScheme.adaptive()))
        first = products[0]
        assert first > 0   # sigma of the scaled matrix, estimated once
        run_restarted(StandardFormLp(c, problem.A, b), SolveOptions(config, RestartScheme.adaptive()))
        assert products[0] == first

    def test_admm_solves_and_a_tuning_factor_once(self, monkeypatch):
        from restartlp import cli, steps

        calls = [0]
        real_splu = steps.spla.splu

        def splu(*args, **kwargs):
            calls[0] += 1
            return real_splu(*args, **kwargs)

        monkeypatch.setattr(steps.spla, "splu", splu)
        problem, _ = generate(PLANTED[0])
        b, c = other_data(problem, 4)
        for p in (problem, StandardFormLp(c, problem.A, b)):
            res = run_restarted(p, SolveOptions(StepConfig(ADMM, 1.0), RestartScheme.adaptive()))
            assert res.status == Status.OPTIMAL
        assert calls == [1]
        calls[0] = 0
        cli._tune_admm_eta(generate(PLANTED[1])[0], iterations=200)
        assert calls == [1]


class TestHighsDifferential:
    """Scaled PDHG and EGM against HiGHS on the standard form."""

    TOL = 1e-6

    @staticmethod
    def highs_x(problem):
        out = linprog(problem.c, A_eq=problem.A.to_dense(), b_eq=problem.b,
                      bounds=(0, None), method="highs")
        assert out.status == 0
        return out.x

    def check(self, problem, objective):
        want = objective(self.highs_x(problem))
        for method in (PDHG, EGM):
            res = run_restarted(problem, SolveOptions(step_for(problem, method),
                                                      RestartScheme.adaptive(),
                                                      kkt_tol=self.TOL, iteration_limit=10**5))
            assert res.status == Status.OPTIMAL and res.scaling is not None
            got = objective(res.solution.x)
            assert abs(got - want) <= 10 * self.TOL * (1 + abs(want)), method

    @pytest.mark.parametrize("spec", [RandomLpKnownOptimum(10, 20, 0.4, 3),
                                      RandomLpKnownOptimum(30, 60, 0.2, 4),
                                      RandomLpKnownOptimum(60, 120, 0.1, 5)],
                             ids=lambda s: f"{s.m}x{s.n}")
    def test_planted(self, spec):
        problem, _ = generate(spec)
        self.check(problem, lambda x: float(problem.c @ x))

    @pytest.mark.parametrize("index", [i for i, text in enumerate(FIXTURES)
                                       if to_standard_form(parse_mps(text))[0].A.nnz])
    def test_mps_fixture(self, index):
        problem, vmap = to_standard_form(parse_mps(FIXTURES[index]))
        self.check(problem, lambda x: vmap.original_objective(problem, x))
