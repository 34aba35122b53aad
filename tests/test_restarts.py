import math
import warnings

import numpy as np
import pytest

from restartlp import (
    AdmmPoint,
    DiagonalBilinear,
    RandomLpKnownOptimum,
    RestartScheme,
    SaddlePoint,
    SolveOptions,
    Status,
    StepConfig,
    fixed_frequency_tstar,
    generate,
    pdhg_step,
    power_method_sigma_max,
    residuals,
    run_restarted,
    should_restart,
)
from restartlp import gap, restarts, steps
from restartlp.lp_core import SparseMatrix, StandardFormLp
from restartlp.steps import ADMM, EGM, PDHG, PPM_BILINEAR, AffineProjector, StepOperators

from oracles import (KktSystem, NormSpec, kkt_error, norm_value, normalized_gap_bisection,
                     theoretical_linear_rate_check)


class TestTstar:
    def test_pdhg_closed_form(self):
        # C = 1/eta, q = 0: ceil(4 / (alpha beta eta)); 8e -> 22
        assert fixed_frequency_tstar(1 / 0.5, 0.0, 1.0, math.exp(-1)) == 22

    def test_egm_form(self):
        eta, alpha, beta = 0.25, 0.5, 0.5
        want = math.ceil(10.0 / (alpha * beta * eta))
        assert fixed_frequency_tstar(1 / eta, 3.0, alpha, beta) == want

    def test_admm_form(self):
        alpha, beta = 0.2, math.exp(-1)
        want = math.ceil(8.0 / (alpha * beta))
        assert fixed_frequency_tstar(1.0, 2.0, alpha, beta) == want

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fixed_frequency_tstar(0.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            fixed_frequency_tstar(1.0, 0.0, 1.0, 1.5)


class TestSolveOptions:
    @pytest.mark.parametrize("tol", [math.nan, -1e-6])
    def test_bad_kkt_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="KKT tolerance"):
            SolveOptions(StepConfig(PDHG, 0.5), RestartScheme.none(), kkt_tol=tol)

    @pytest.mark.parametrize("field", ["iteration_limit", "check_cadence"])
    @pytest.mark.parametrize("value", [2.5, 50.5, 2.0, "3"])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SolveOptions(StepConfig(PDHG, 0.5), RestartScheme.none(), **{field: value})

    def test_numpy_integer_counts_become_ints(self):
        options = SolveOptions(StepConfig(PDHG, 0.5), RestartScheme.none(),
                               iteration_limit=np.int64(50), check_cadence=np.uint8(5))
        counts = (options.iteration_limit, options.check_cadence)
        assert counts == (50, 5) and all(type(c) is int for c in counts)

    def test_iteration_limit_and_cadence_are_kept_exactly(self):
        problem, _ = generate(DiagonalBilinear((0.5, 1.0)))
        options = SolveOptions(StepConfig(PDHG, 0.5), RestartScheme.none(), kkt_tol=0.0,
                               iteration_limit=np.int64(50), check_cadence=np.int64(20))
        res = run_restarted(problem, options, z0=SaddlePoint(np.ones(2), np.ones(2)))
        assert res.iterations == 50
        assert [r.iteration for r in res.trace.records] == [20, 40, 50]


class TestRestartScheme:
    @pytest.mark.parametrize("value", [2.7, 2.0, "2"])
    def test_non_integer_lengths_rejected(self, value):
        with pytest.raises(ValueError, match="must be an integer"):
            RestartScheme.fixed(value)

    def test_numpy_integer_lengths_become_ints(self):
        assert RestartScheme.fixed(np.int64(64)) == RestartScheme.fixed(64)
        assert type(RestartScheme.fixed(np.int64(64)).tau) is int


class TestShouldRestart:
    # should_restart(scheme, outer, inner, stored_gap, gap_now, radius)

    @pytest.mark.parametrize("scheme", [RestartScheme.adaptive(), RestartScheme.flexible()],
                             ids=["adaptive", "flexible"])
    def test_first_epoch_ends_at_its_first_checkpoint(self, scheme):
        # no gap is stored before the first restart, whatever the gap now
        for inner in (1, 30):
            assert should_restart(scheme, 0, inner, None, 10.0, 1.0)
            assert should_restart(scheme, 0, inner, None, math.inf, 1.0)

    def test_adaptive_decay_ratio(self):
        scheme = RestartScheme.adaptive(beta=math.exp(-1))
        assert should_restart(scheme, 3, 40, 1.0, 0.3, 1.0)
        assert not should_restart(scheme, 3, 40, 1.0, 0.4, 1.0)

    @pytest.mark.parametrize("scheme", [RestartScheme.adaptive(), RestartScheme.flexible()],
                             ids=["adaptive", "flexible"])
    def test_candidate_at_the_anchor_restarts(self, scheme):
        # a candidate that has not moved from the anchor restarts whatever
        # its gap, which is not measured at radius 0
        assert should_restart(scheme, 3, 40, 1.0, math.inf, 0.0)
        assert should_restart(scheme, 3, 40, 1.0, math.nan, 0.0)
        assert not should_restart(scheme, 3, 40, 1.0, math.nan, 1e-300)

    def test_fixed_threshold(self):
        scheme = RestartScheme.fixed(25)
        assert not should_restart(scheme, 0, 24, None, 0.0, 0.0)
        assert should_restart(scheme, 0, 25, None, 0.0, 0.0)
        assert not should_restart(scheme, 2, 24, 1.0, 0.0, 1.0)

    def test_no_restart_never(self):
        assert not should_restart(RestartScheme.none(), 5, 10**6, 1.0, 0.0, 0.0)


class TestRunRestarted:
    def test_average_identity_against_replay(self):
        # the driver's running average equals the from-scratch mean of targets
        problem, _ = generate(DiagonalBilinear((0.5, 1.0)))
        cfg = StepConfig(PDHG, 0.7)
        opts = SolveOptions(step=cfg, scheme=RestartScheme.none(), kkt_tol=0.0,
                            iteration_limit=137, check_cadence=137)
        z0 = SaddlePoint(np.array([1.0, -2.0]), np.array([0.5, 0.25]))
        res = run_restarted(problem, opts, z0=z0)
        z = SaddlePoint(z0.x, z0.y)
        targets = []
        ops = StepOperators(problem, cfg)
        for _ in range(137):
            out = pdhg_step(problem, z, cfg, ops)
            z = out.next
            targets.append(out.target.as_vector())
        mean = np.mean(targets, axis=0)
        got = res.average.as_vector()
        assert np.linalg.norm(got - mean) <= 1e-12 * max(1.0, np.linalg.norm(mean))

    def test_bad_start_point_raises(self):
        # blocks of the wrong shapes (even with the right total length), a
        # non-finite entry, a point of another method's class, or no point
        bilinear, _ = generate(DiagonalBilinear((0.5, 1.0)))
        lp, _ = generate(RandomLpKnownOptimum(5, 10, 0.5, 0))
        n, m = lp.n, lp.m
        pdhg = StepConfig(PDHG, 0.5)
        admm = StepConfig(ADMM, 1.0)
        cases = [
            (bilinear, pdhg, SaddlePoint(np.ones(3), np.ones(1)), "shape"),
            (bilinear, pdhg, SaddlePoint(np.ones(2), np.ones((2, 1))), "shape"),
            (bilinear, pdhg, SaddlePoint(np.array([np.nan, 1.0]), np.ones(2)), "non-finite"),
            (lp, pdhg, SaddlePoint(np.ones(n), np.array([np.inf] + [0.0] * (m - 1))), "non-finite"),
            (lp, pdhg, AdmmPoint(np.ones(n), np.ones(n), np.ones(n)), "shape"),
            (lp, admm, AdmmPoint(np.ones(n), np.ones(n - 1), np.ones(n + 1)), "shape"),
            (lp, admm, AdmmPoint(np.ones(n), np.full(n, -np.inf), np.ones(n)), "non-finite"),
            (lp, admm, SaddlePoint(np.ones(n), np.ones(m)), "shape"),
            (bilinear, pdhg, np.ones(4), "shape"),
            (lp, admm, (np.ones(n), np.ones(n), np.ones(n)), "shape"),
        ]
        for problem, step, z0, match in cases:
            options = SolveOptions(step, RestartScheme.adaptive(), iteration_limit=50)
            with pytest.raises(ValueError, match=match):
                run_restarted(problem, options, z0=z0)

    def test_ppm_on_an_lp_is_rejected_before_any_work(self, monkeypatch):
        # no rescaling, sigma estimate or KKT measurement precedes the error
        calls = []
        real = restarts.power_method_sigma_max

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(restarts, "power_method_sigma_max", counted)
        lp, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, 0))
        options = SolveOptions(StepConfig(PPM_BILINEAR, 0.5), RestartScheme.adaptive())
        with pytest.raises(ValueError, match="unconstrained bilinear problems only"):
            run_restarted(lp, options)
        assert calls == [] and lp.A.memo == {}

    def test_admm_on_an_unconstrained_problem_is_rejected_before_any_step(self, monkeypatch):
        # ADMM's split form clips x_V at 0: on A = I, b = (1, -1), c = (1, 1)
        # it ran to its iteration limit at x_V = (1, 0), where PDHG finds
        # x = (1, -1)
        monkeypatch.setattr(restarts, "admm_step", lambda *a, **k: pytest.fail("ADMM stepped"))
        A = SparseMatrix(2, 2, [0, 1], [0, 1], [1.0, 1.0])
        problem = StandardFormLp(np.ones(2), A, np.array([1.0, -1.0]), nonneg=False)
        options = SolveOptions(StepConfig(ADMM, 1.0), RestartScheme.adaptive())
        with pytest.raises(ValueError, match="ADMM steps only an LP"):
            run_restarted(problem, options)
        z = AdmmPoint(np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="ADMM steps only an LP"):
            steps.admm_step(problem, z, options.step)
        assert A.memo == {}

    def test_running_sum_tracks_the_incremental_average(self):
        # over 5000 unrestarted PDHG iterations the driver's sum / K stays
        # within 1e-13 (relative, in norm) of the incremental average
        # zbar_K = zbar_{K-1} + (z_K - zbar_{K-1}) / K of the same targets
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 0))
        sigma = power_method_sigma_max(problem.A)
        opts = SolveOptions(step=StepConfig(PDHG, 0.9 / sigma), scheme=RestartScheme.none(),
                            kkt_tol=0.0, iteration_limit=5000, check_cadence=5000)
        ref, worst = None, 0.0

        def observe(t, target, average):
            nonlocal ref, worst
            ref = target.copy() if ref is None else ref + (target - ref) / t
            worst = max(worst, np.linalg.norm(average() - ref) / np.linalg.norm(ref))
            return False

        res = run_restarted(problem, opts, observe=observe)
        assert res.iterations == 5000 and res.scaling is not None
        assert 0.0 < worst <= 1e-13

    def test_overflowing_sum_ends_diverged_without_warnings(self):
        # every target is finite, near the largest float, so their running
        # sum overflows; the checkpoint reports it, and numpy warns nothing
        problem, _ = generate(DiagonalBilinear((1.0,)))
        big = np.finfo(np.float64).max / 8
        z0 = SaddlePoint(np.array([big]), np.array([big]))
        opts = SolveOptions(step=StepConfig(PDHG, 1e-3), scheme=RestartScheme.none(),
                            kkt_tol=0.0, iteration_limit=100, check_cadence=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_restarted(problem, opts, z0=z0)
        assert res.status == Status.DIVERGED and res.iterations == 10
        assert np.all(np.isfinite(res.last.as_vector()))
        assert not np.all(np.isfinite(res.average.as_vector()))

    def test_toy_fixed25_anchor_distances_decrease(self):
        problem, _ = generate(DiagonalBilinear((1.0,)))
        opts = SolveOptions(step=StepConfig(PDHG, 0.2),
                            scheme=RestartScheme.fixed(25), kkt_tol=0.0,
                            iteration_limit=5 * 25, check_cadence=1)
        z0 = SaddlePoint(np.array([1.0]), np.array([1.0]))
        res = run_restarted(problem, opts, z0=z0)
        dists = [np.linalg.norm(a) for a in res.anchors]
        assert len(dists) >= 5
        for lo, hi in zip(dists[1:], dists[:-1]):
            assert lo < hi

    def test_toy_restart_beats_no_restart_at_50(self):
        problem, _ = generate(DiagonalBilinear((1.0,)))
        z0 = SaddlePoint(np.array([1.0]), np.array([1.0]))
        base = SolveOptions(step=StepConfig(PDHG, 0.2),
                            scheme=RestartScheme.none(), kkt_tol=0.0,
                            iteration_limit=50, check_cadence=1)
        res_plain = run_restarted(problem, base, z0=z0)
        opts = SolveOptions(step=StepConfig(PDHG, 0.2),
                            scheme=RestartScheme.fixed(25), kkt_tol=0.0,
                            iteration_limit=50, check_cadence=1)
        res_fixed = run_restarted(problem, opts, z0=z0)
        d_plain = np.linalg.norm(res_plain.last.as_vector())
        d_restart = np.linalg.norm(res_fixed.average.as_vector())
        assert d_restart < d_plain

    def test_adaptive_solves_random_lp(self):
        for seed in (0, 1, 2):
            problem, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, seed))
            smax = power_method_sigma_max(problem.A, seed=seed)
            opts = SolveOptions(step=StepConfig(PDHG, 0.9 / smax),
                                scheme=RestartScheme.adaptive(),
                                kkt_tol=1e-6, iteration_limit=10**6)
            res = run_restarted(problem, opts)
            assert res.status == Status.OPTIMAL
            assert min(res.kkt_avg, res.kkt_last) <= 1e-6

    @pytest.mark.parametrize("scheme", [RestartScheme.adaptive(), RestartScheme.flexible()])
    def test_admm_solves_planted_lp(self, scheme):
        for seed in (0, 1):
            problem, opt = generate(RandomLpKnownOptimum(20, 40, 0.3, seed))
            opts = SolveOptions(step=StepConfig(ADMM, 1.0), scheme=scheme,
                                kkt_tol=1e-6, iteration_limit=10**5)
            res = run_restarted(problem, opts)
            assert res.status == Status.OPTIMAL
            assert min(res.kkt_avg, res.kkt_last) <= 1e-6
            f_star = float(problem.c @ opt.x)
            assert abs(problem.c @ res.solution.x_v - f_star) <= 1e-5 * (1 + abs(f_star))

    def test_trace_shape_and_monotone_iterations(self):
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 5))
        smax = power_method_sigma_max(problem.A, seed=5)
        opts = SolveOptions(step=StepConfig(PDHG, 0.9 / smax),
                            scheme=RestartScheme.adaptive(), kkt_tol=1e-6,
                            iteration_limit=10**5, check_cadence=30)
        res = run_restarted(problem, opts)
        iters = [rec.iteration for rec in res.trace.records]
        assert iters == sorted(iters)
        assert all(b > a for a, b in zip(iters, iters[1:]))
        restarted_rows = [rec for rec in res.trace.records if rec.restarted]
        assert len(restarted_rows) == res.restart_count > 0

    def test_iteration_limit_status(self):
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 5))
        smax = power_method_sigma_max(problem.A, seed=5)
        opts = SolveOptions(step=StepConfig(PDHG, 0.9 / smax),
                            scheme=RestartScheme.adaptive(), kkt_tol=1e-12,
                            iteration_limit=10, check_cadence=30)
        res = run_restarted(problem, opts)
        assert res.status == Status.ITERATION_LIMIT
        assert res.iterations == 10

    def test_divergence_detected(self):
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 5))
        smax = power_method_sigma_max(problem.A, seed=5)
        opts = SolveOptions(step=StepConfig(PDHG, 50.0 / smax),
                            scheme=RestartScheme.none(), kkt_tol=1e-6,
                            iteration_limit=10**5, check_cadence=30)
        res = run_restarted(problem, opts)
        assert res.status == Status.DIVERGED
        assert np.all(np.isfinite(res.solution.as_vector()))

    def test_divergence_at_the_first_checkpoint_returns_the_start(self):
        # nothing better was measured: the start comes back with its own
        # KKT error, measured only now
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 5))
        smax = power_method_sigma_max(problem.A, seed=5)
        opts = SolveOptions(step=StepConfig(PDHG, 50.0 / smax), scheme=RestartScheme.none(),
                            iteration_limit=10**5, check_cadence=1000)
        res = run_restarted(problem, opts)
        assert res.status == Status.DIVERGED and res.iterations == 1000
        start = SaddlePoint(np.zeros(problem.n), np.zeros(problem.m))
        assert not res.solution.as_vector().any()
        assert res.kkt_avg == res.kkt_last == pytest.approx(residuals(problem, start).kkt_error,
                                                             rel=1e-12)

    def test_no_restart_records_last_iterate_gap(self):
        problem, _ = generate(DiagonalBilinear((1.0,)))
        z0 = SaddlePoint(np.array([1.0]), np.array([1.0]))
        opts = SolveOptions(step=StepConfig(PDHG, 0.2),
                            scheme=RestartScheme.none(), kkt_tol=0.0,
                            iteration_limit=10, check_cadence=1)
        res = run_restarted(problem, opts, z0=z0)
        # on the unconstrained toy the gap at z is |F(z)| = |z| reflected
        z = SaddlePoint(z0.x, z0.y)
        cfg = StepConfig(PDHG, 0.2)
        ops = StepOperators(problem, cfg)
        for rec in res.trace.records:
            z = pdhg_step(problem, z, cfg, ops).next
            expect = float(np.linalg.norm([z.y[0], -z.x[0]]))
            assert rec.normalized_gap == pytest.approx(expect, rel=1e-12)


def _arrays(point):
    return [point.x, point.y] if isinstance(point, SaddlePoint) else [point.x_u, point.x_v, point.y]


class TestCheckpoint:
    def test_flexible_admm_solves_the_dual_once_per_point(self, monkeypatch):
        # a checkpoint measures the average and the last iterate once each,
        # one dual solve apiece; the start is measured only on a divergence
        calls = []
        solve_normal = AffineProjector.solve_normal

        def counted(self, rhs):
            calls.append(rhs.size)
            return solve_normal(self, rhs)

        monkeypatch.setattr(AffineProjector, "solve_normal", counted)
        problem, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, 1))
        res = run_restarted(problem, SolveOptions(StepConfig(ADMM, 1.0), RestartScheme.flexible(),
                                                  kkt_tol=1e-7, iteration_limit=10**4))
        assert res.status == Status.OPTIMAL and res.restart_count > 0
        assert len(calls) == 2 * len(res.trace.records)

    @pytest.mark.parametrize("case", ["bilinear-z0", "scaled-pdhg", "scaled-egm", "admm",
                                      "fixed-pdhg"])
    def test_returned_arrays_share_no_memory(self, case):
        # the iterate lives in two buffers the solve alternates between (and
        # EGM's and ADMM's targets in a third); nothing returned may alias
        # them or each other
        z0 = None
        scheme = RestartScheme.fixed(40) if case == "fixed-pdhg" else RestartScheme.adaptive()
        if case == "bilinear-z0":
            problem, _ = generate(DiagonalBilinear((0.5, 1.0, 2.0)))
            z0 = SaddlePoint(np.ones(3), -np.ones(3))
            step = StepConfig(PDHG, 0.4)
        else:
            problem, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, 0))
            sigma = power_method_sigma_max(problem.A)
            step = {"admm": StepConfig(ADMM, 1.0),
                    "scaled-egm": StepConfig(EGM, 0.9 / sigma, lipschitz=1.01 * sigma)}.get(
                        case, StepConfig(PDHG, 0.9 / sigma))
        res = run_restarted(problem, SolveOptions(step, scheme, kkt_tol=1e-8,
                                                  iteration_limit=2000, check_cadence=10), z0=z0)
        assert res.restart_count > 0 and (res.scaling is None) == (z0 is not None)
        arrays = _arrays(res.solution) + _arrays(res.average) + _arrays(res.last) + res.anchors
        if z0 is not None:
            arrays += _arrays(z0)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


    @pytest.mark.parametrize("method, scheme", [(PDHG, RestartScheme.adaptive()),
                                                (EGM, RestartScheme.adaptive()),
                                                (PDHG, RestartScheme.flexible())])
    def test_fused_measure_matches_the_oracles(self, monkeypatch, method, scheme):
        # every vector a planted run measures, measured again by the
        # bisection gap oracle on the scaled problem and the explicit KKT
        # system of the caller's problem; near the optimum both residuals
        # cancel O(1) terms, hence an absolute floor at the data's scale
        seen = []
        measure = restarts._SaddleLane.measure

        def recorded(lane, vec, radius):
            out = measure(lane, vec, radius)
            seen.append((lane, vec.copy(), radius, out))
            return out

        monkeypatch.setattr(restarts._SaddleLane, "measure", recorded)
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 3))
        sigma = power_method_sigma_max(problem.A)
        step = StepConfig(method, 0.9 / sigma, lipschitz=1.01 * sigma if method == EGM else None)
        res = run_restarted(problem, SolveOptions(step, scheme, kkt_tol=1e-8, iteration_limit=5000))
        assert res.status == Status.OPTIMAL and res.restart_count > 0
        system = KktSystem.from_problem(problem)
        floor = 1e-14 * (1.0 + np.linalg.norm(problem.b) + np.linalg.norm(problem.c))
        gaps = 0
        for lane, vec, radius, (rho, kkt) in seen:
            n = lane.n
            if radius != 0.0:
                ref = normalized_gap_bisection(lane.problem, SaddlePoint(vec[:n], vec[n:]), radius)
                assert rho == pytest.approx(ref, rel=1e-9, abs=1e-14)
                gaps += 1
            caller = SaddlePoint(lane.d2 * vec[:n], lane.d1 * vec[n:])
            assert kkt == pytest.approx(kkt_error(system, caller).kkt_error, rel=1e-12, abs=floor)
        assert gaps >= len(res.trace.records)


class TestObserve:
    def test_stop_carries_the_observers_iteration(self):
        problem, _ = generate(DiagonalBilinear((0.5, 1.0)))
        opts = SolveOptions(step=StepConfig(PDHG, 0.7), scheme=RestartScheme.adaptive(),
                            kkt_tol=0.0, iteration_limit=1000, check_cadence=30)
        seen = []

        def observe(t, target, average):
            seen.append(t)
            return t == 47

        res = run_restarted(problem, opts, z0=SaddlePoint(np.ones(2), np.ones(2)),
                            observe=observe)
        assert res.status == Status.STOPPED
        assert res.iterations == 47
        assert seen == list(range(1, 48))
        assert res.trace.records[-1].iteration == 47

    def test_observer_that_never_stops_changes_nothing(self):
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 0))
        smax = power_method_sigma_max(problem.A)
        opts = SolveOptions(step=StepConfig(PDHG, 0.9 / smax),
                            scheme=RestartScheme.adaptive(), kkt_tol=1e-6)
        calls = []
        plain = run_restarted(problem, opts)
        watched = run_restarted(problem, opts, observe=lambda t, z, avg: calls.append(t))
        assert watched.status == plain.status == Status.OPTIMAL
        assert calls == list(range(1, plain.iterations + 1))
        fields = ("iteration", "outer", "inner", "normalized_gap", "kkt_avg", "kkt_last",
                  "radius", "restarted")

        def rows(res):
            return [[getattr(r, f) for f in fields] for r in res.trace.records]

        assert rows(watched) == rows(plain)
        assert np.array_equal(plain.solution.as_vector(), watched.solution.as_vector())

    def test_rescaled_lp_observer_sees_caller_space(self):
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 0))
        smax = power_method_sigma_max(problem.A)
        opts = SolveOptions(step=StepConfig(PDHG, 0.9 / smax), scheme=RestartScheme.fixed(64),
                            kkt_tol=0.0, iteration_limit=1000, check_cadence=32)
        kept = {}

        def observe(t, target, average):
            kept["target"], kept["average"] = target.copy(), average().copy()
            return t == 100

        res = run_restarted(problem, opts, observe=observe)
        assert res.scaling is not None
        assert res.status == Status.STOPPED and res.iterations == 100
        assert [rec.iteration for rec in res.trace.records if rec.restarted] == [64]
        assert np.array_equal(kept["average"], res.average.as_vector())
        # a PDHG target is the next iterate
        assert np.array_equal(kept["target"], res.last.as_vector())


class TestTheory:
    def test_fixed_contraction_and_adaptive_lengths(self):
        problem, opt = generate(DiagonalBilinear((0.5, 1.0)))
        cfg = StepConfig(PDHG, 0.9)
        rng = np.random.default_rng(0)
        z0 = SaddlePoint(rng.standard_normal(2), rng.standard_normal(2))
        rep = theoretical_linear_rate_check(problem, opt, cfg, alpha=0.5,
                                            epochs=20, z0=z0)
        assert rep.tstar == 25
        assert rep.fixed_ok
        assert rep.adaptive_ok
        assert all(rec.ok for rec in rep.fixed_epochs)
        assert len(rep.fixed_epochs) >= 20

    def test_flexible_lengths_bounded_by_tstar(self):
        problem, opt = generate(DiagonalBilinear((0.5, 1.0)))
        cfg = StepConfig(PDHG, 0.9)
        tstar = fixed_frequency_tstar(cfg.sufficient_decay_c,
                                      cfg.target_proximity_q, 0.5, math.exp(-1))
        rng = np.random.default_rng(3)
        z0 = SaddlePoint(rng.standard_normal(2), rng.standard_normal(2))
        opts = SolveOptions(step=cfg, scheme=RestartScheme.flexible(),
                            kkt_tol=0.0, iteration_limit=20 * tstar,
                            check_cadence=1)
        res = run_restarted(problem, opts, z0=z0)
        lengths = [rec.inner for rec in res.trace.records if rec.restarted]
        assert all(length <= tstar for length in lengths[1:])

    def test_anchors_stay_in_method_norm_ball(self):
        # PDHG/PPM anchors remain within 2 dist(z0, Z*) of z0 in method norm
        rng = np.random.default_rng(11)
        for method, eta in ((PDHG, 0.9), (PPM_BILINEAR, 0.7)):
            problem, opt = generate(DiagonalBilinear((0.5, 1.0)))
            cfg = StepConfig(method, eta)
            spec = (NormSpec.pdhg(eta) if method == PDHG else NormSpec.euclidean())
            z0 = SaddlePoint(rng.standard_normal(2), rng.standard_normal(2))
            opts = SolveOptions(step=cfg, scheme=RestartScheme.adaptive(),
                                kkt_tol=0.0, iteration_limit=300,
                                check_cadence=1)
            res = run_restarted(problem, opts, z0=z0)
            d0 = norm_value(spec, problem,
                            SaddlePoint(z0.x - opt.x, z0.y - opt.y))
            for anchor in res.anchors:
                z = SaddlePoint.over(anchor, problem.n)
                d = norm_value(spec, problem,
                               SaddlePoint(z.x - z0.x, z.y - z0.y))
                assert d <= 2.0 * d0 * (1 + 1e-9)

    def test_beta_choice_recorded_not_asserted(self):
        # e^-1 vs 0.9: on a conditioned instance the default needs no more
        # total iterations to reach a tight anchor distance
        problem, opt = generate(DiagonalBilinear((0.1, 1.0)))
        cfg = StepConfig(PDHG, 0.9)
        z0 = SaddlePoint(np.ones(2), np.ones(2))
        totals = {}
        for beta in (math.exp(-1), 0.9):
            opts = SolveOptions(step=cfg, scheme=RestartScheme.adaptive(beta=beta),
                                kkt_tol=0.0, iteration_limit=5000,
                                check_cadence=1)
            res = run_restarted(problem, opts, z0=z0)
            hit = None
            restarts_at = [r.iteration for r in res.trace.records if r.restarted]
            for rec, it in zip(res.anchors, [0] + restarts_at):
                if np.linalg.norm(rec) <= 1e-8 * np.linalg.norm(z0.as_vector()):
                    hit = it
                    break
            totals[beta] = hit
        assert totals[math.exp(-1)] is not None  # the default converges


class TestStepNamesSeen:
    """A span tracer wraps ``restarts.pdhg_step``/``egm_step``/``admm_step``/
    ``ppm_bilinear_step``, the names ``run_restarted`` looks up,
    ``restarts.normalized_gap_lp``/``normalized_gap_admm`` and
    ``gap.solve_linear_trust_region``, the names a checkpoint looks up, and
    ``SparseMatrix.matvec``/``rmatvec`` and ``AffineProjector.project`` on
    their classes; every iteration and every gap must go through those
    names, or the tracer's step, SpMV, projection and gap counts read
    short."""

    @pytest.mark.parametrize("method, matvecs", [(PDHG, 1), (EGM, 2)])
    def test_each_iteration_calls_the_step_and_both_products(self, monkeypatch, method, matvecs):
        # PDHG runs one product with A and one with A' per iteration; EGM
        # runs its two pairs as two products with the saddle operator, of
        # 2 nnz(A) nonzeros each, so the nonzeros a step's products read
        # (what the tracer's computed bytes count) cover four products
        from restartlp.lp_core import SparseMatrix

        name = "pdhg_step" if method == PDHG else "egm_step"
        counts = {"step": 0, "matvec": 0, "rmatvec": 0, "nnz": 0}
        in_step = [False]

        def step(*args, **kwargs):
            counts["step"] += 1
            in_step[0] = True
            try:
                return real_step(*args, **kwargs)
            finally:
                in_step[0] = False

        def product(key, fn):
            def wrapper(matrix, *args, **kwargs):
                # a checkpoint's products are not counted
                counts[key] += in_step[0]
                counts["nnz"] += in_step[0] * matrix.nnz
                return fn(matrix, *args, **kwargs)
            return wrapper

        real_step = getattr(restarts, name)
        monkeypatch.setattr(restarts, name, step)
        for key in ("matvec", "rmatvec"):
            monkeypatch.setattr(SparseMatrix, key, product(key, SparseMatrix.__dict__[key]))
        problem, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, 1))
        sigma = power_method_sigma_max(problem.A)
        config = StepConfig(method, 0.9 / sigma, lipschitz=None if method == PDHG else 1.01 * sigma)
        res = run_restarted(problem, SolveOptions(config, RestartScheme.adaptive(), kkt_tol=0.0,
                                                  iteration_limit=150))
        assert res.iterations == 150 and res.restart_count > 0
        rmatvecs = 1 if method == PDHG else 0
        assert counts == {"step": 150, "matvec": matvecs * 150, "rmatvec": rmatvecs * 150,
                          "nnz": 150 * 2 * matvecs * problem.A.nnz}

    @pytest.mark.parametrize("method", [ADMM, PPM_BILINEAR])
    def test_each_iteration_calls_the_step_and_admm_projects_once(self, monkeypatch, method):
        name = "admm_step" if method == ADMM else "ppm_bilinear_step"
        counts = {"step": 0, "project": 0}
        in_step = [False]

        def step(*args, **kwargs):
            counts["step"] += 1
            in_step[0] = True
            try:
                return real_step(*args, **kwargs)
            finally:
                in_step[0] = False

        def project(*args, **kwargs):
            counts["project"] += in_step[0]
            return real_project(*args, **kwargs)

        real_step = getattr(restarts, name)
        real_project = AffineProjector.__dict__["project"]
        monkeypatch.setattr(restarts, name, step)
        monkeypatch.setattr(AffineProjector, "project", project)
        if method == ADMM:
            problem, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, 1))
            config, z0 = StepConfig(ADMM, 1.0), None
        else:
            problem, _ = generate(DiagonalBilinear((0.05, 0.3, 1.0)))
            config, z0 = StepConfig(PPM_BILINEAR, 2.0), SaddlePoint(np.ones(3), np.ones(3))
        res = run_restarted(problem, SolveOptions(config, RestartScheme.adaptive(), kkt_tol=0.0,
                                                  iteration_limit=150), z0)
        assert res.iterations == 150 and res.restart_count > 0
        assert counts == {"step": 150, "project": 150 if method == ADMM else 0}

    @staticmethod
    def _spy(monkeypatch, module, name):
        calls = []
        fn = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("method", [PDHG, ADMM])
    def test_each_gap_calls_the_adapter_and_the_solver_once(self, monkeypatch, method):
        # flexible PDHG reads the gaps of the average and the last iterate
        # at every checkpoint, adaptive ADMM the average's alone
        if method == PDHG:
            problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 0))
            step = StepConfig(PDHG, 0.9 / power_method_sigma_max(problem.A))
            scheme, adapter, per_checkpoint = RestartScheme.flexible(), "normalized_gap_lp", 2
        else:
            problem, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, 1))
            step = StepConfig(ADMM, 1.0)
            scheme, adapter, per_checkpoint = RestartScheme.adaptive(), "normalized_gap_admm", 1
        gaps = self._spy(monkeypatch, restarts, adapter)
        solves = self._spy(monkeypatch, gap, "solve_linear_trust_region")
        res = run_restarted(problem, SolveOptions(step, scheme, kkt_tol=1e-7,
                                                  iteration_limit=10**4))
        assert res.status == Status.OPTIMAL and res.restart_count > 0
        assert len(gaps) == per_checkpoint * len(res.trace.records)
        assert len(solves) == len(gaps)
