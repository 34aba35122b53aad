import math

import numpy as np
import pytest

from restartlp import (
    DiagonalBilinear,
    NormSpec,
    RandomLpKnownOptimum,
    RestartScheme,
    RestartState,
    SaddlePoint,
    SolveOptions,
    Status,
    StepConfig,
    TwoDimToy,
    fixed_frequency_tstar,
    generate,
    norm_value,
    pdhg_step,
    power_method_sigma_max,
    run_restarted,
    should_restart,
    theoretical_linear_rate_check,
)
from restartlp.restarts import ADAPTIVE, FLEXIBLE
from restartlp.steps import ADMM, PDHG, PPM_BILINEAR


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


class TestShouldRestart:
    def test_first_epoch_fires_at_tau0(self):
        state = RestartState(outer=0, inner=1)
        assert should_restart(state, RestartScheme.adaptive(tau0=1), gap_now=10.0)

    def test_adaptive_decay_ratio(self):
        beta = math.exp(-1)
        state = RestartState(outer=3, inner=40, gap_at_restart=1.0)
        assert should_restart(state, RestartScheme.adaptive(beta=beta), 0.3)
        assert not should_restart(state, RestartScheme.adaptive(beta=beta), 0.4)

    def test_fixed_threshold(self):
        scheme = RestartScheme.fixed(25)
        assert not should_restart(RestartState(outer=0, inner=24), scheme, 0.0)
        assert should_restart(RestartState(outer=0, inner=25), scheme, 0.0)

    def test_no_restart_never(self):
        state = RestartState(outer=5, inner=10**6, gap_at_restart=1.0)
        assert not should_restart(state, RestartScheme.none(), 0.0)


class TestRunRestarted:
    def test_average_identity_against_replay(self):
        # the driver's running average equals the from-scratch mean of targets
        problem, _ = generate(DiagonalBilinear((0.5, 1.0)))
        cfg = StepConfig(PDHG, 0.7)
        opts = SolveOptions(step=cfg, scheme=RestartScheme.none(), kkt_tol=0.0,
                            iteration_limit=137, check_cadence=137)
        z0 = SaddlePoint(np.array([1.0, -2.0]), np.array([0.5, 0.25]))
        res = run_restarted(problem, opts, z0=z0)
        z = z0.copy()
        targets = []
        for _ in range(137):
            out = pdhg_step(problem, z, cfg)
            z = out.next
            targets.append(out.target.as_vector())
        mean = np.mean(targets, axis=0)
        got = res.average.as_vector()
        assert np.linalg.norm(got - mean) <= 1e-12 * max(1.0, np.linalg.norm(mean))

    def test_toy_fixed25_anchor_distances_decrease(self):
        problem, _ = generate(TwoDimToy())
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
        problem, _ = generate(TwoDimToy())
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
        assert res.restart_count == len(res.trace.restart_lengths)
        restarted_rows = [rec for rec in res.trace.records if rec.restarted]
        assert len(restarted_rows) == res.restart_count

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

    def test_no_restart_records_last_iterate_gap(self):
        problem, _ = generate(TwoDimToy())
        z0 = SaddlePoint(np.array([1.0]), np.array([1.0]))
        opts = SolveOptions(step=StepConfig(PDHG, 0.2),
                            scheme=RestartScheme.none(), kkt_tol=0.0,
                            iteration_limit=10, check_cadence=1)
        res = run_restarted(problem, opts, z0=z0)
        # on the unconstrained toy the gap at z is |F(z)| = |z| reflected
        z = z0.copy()
        for rec in res.trace.records:
            z = pdhg_step(problem, z, StepConfig(PDHG, 0.2)).next
            expect = float(np.linalg.norm([z.y[0], -z.x[0]]))
            assert rec.normalized_gap == pytest.approx(expect, rel=1e-12)


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
            kept["target"], kept["average"] = target.copy(), average.copy()
            return t == 100

        res = run_restarted(problem, opts, observe=observe)
        assert res.scaling is not None
        assert res.status == Status.STOPPED and res.iterations == 100
        assert res.trace.restart_iterations == [64]
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
        assert all(length <= tstar for length in res.trace.restart_lengths[1:])

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
                z = SaddlePoint.from_vector(anchor, problem.n)
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
            for rec, it in zip(res.anchors, [0] + res.trace.restart_iterations):
                if np.linalg.norm(rec) <= 1e-8 * np.linalg.norm(z0.as_vector()):
                    hit = it
                    break
            totals[beta] = hit
        assert totals[math.exp(-1)] is not None  # the default converges
