import math

import numpy as np
import pytest

from restartlp import (
    DiagonalBilinear,
    SaddlePoint,
    SpectralBlock,
    StepConfig,
    b_metric_matrix,
    b_norm_sq,
    dynamics_matrix,
    generate,
    pdhg_step,
    table3_scaling_experiment,
    theoretical_average_bound,
    theoretical_B_norm_decay,
    two_dim_toy_series,
)
from restartlp.steps import PDHG


class TestDynamicsMatrix:
    def test_hand_value(self):
        P = dynamics_matrix(1.0, 0.2)
        assert np.allclose(P, [[1.0, -0.2], [0.2, 0.92]], atol=0)

    def test_small_eta_identity(self):
        P = dynamics_matrix(2.0, 1e-12)
        assert np.allclose(P, np.eye(2), atol=1e-11)

    def test_invalid_eta(self):
        with pytest.raises(ValueError):
            dynamics_matrix(2.0, 0.6)  # eta > 1/sigma
        with pytest.raises(ValueError):
            dynamics_matrix(1.0, 0.0)

    def test_matches_pdhg_step(self, rng):
        problem, _ = generate(DiagonalBilinear((1.0,)))
        cfg = StepConfig(PDHG, 0.2)
        P = dynamics_matrix(1.0, 0.2)
        z = SaddlePoint(rng.standard_normal(1), rng.standard_normal(1))
        stepped = pdhg_step(problem, z, cfg).next
        direct = P @ np.array([z.x[0], z.y[0]])
        assert abs(stepped.x[0] - direct[0]) <= 1e-14 * max(1.0, abs(direct[0]))
        assert abs(stepped.y[0] - direct[1]) <= 1e-14 * max(1.0, abs(direct[1]))


class TestSpectralFacts:
    def test_eigenvalue_modulus_identity(self, rng):
        # |gamma|^2 = 1 - eta^2 sigma^2, and it matches the actual spectrum
        for _ in range(100):
            sigma = float(rng.uniform(0.05, 3.0))
            eta = float(rng.uniform(0.01, 0.999)) / sigma
            block = SpectralBlock(sigma, eta)
            re, im = block.eigenvalues
            assert re * re + im * im == pytest.approx(
                block.eigenvalue_modulus_sq, rel=1e-12)
            eig = np.linalg.eigvals(block.dynamics)
            assert abs(eig[0]) ** 2 == pytest.approx(1 - (eta * sigma) ** 2,
                                                     rel=1e-12)

    def test_one_minus_gamma_identity(self, rng):
        for _ in range(100):
            sigma = float(rng.uniform(0.05, 3.0))
            eta = float(rng.uniform(0.01, 0.999)) / sigma
            block = SpectralBlock(sigma, eta)
            assert block.one_minus_eigenvalue_abs == pytest.approx(
                eta * sigma, rel=1e-12)

    def test_b_metric_inverts_qq_dagger(self, rng):
        # B (Q Q^dagger) = I with Q Q^dagger = 2 [[1, a], [a, 1]]
        for _ in range(20):
            sigma = float(rng.uniform(0.1, 2.0))
            eta = float(rng.uniform(0.05, 0.95)) / sigma
            a = eta * sigma
            B = b_metric_matrix(sigma, eta)
            QQ = 2.0 * np.array([[1.0, a], [a, 1.0]])
            assert np.allclose(B @ QQ, np.eye(2), atol=1e-12)

    def test_b_sandwich(self, rng):
        for _ in range(50):
            sigma = float(rng.uniform(0.1, 2.0))
            eta = float(rng.uniform(0.05, 0.5)) / sigma  # eta <= 1/(2 sigma)
            for _ in range(20):
                v = rng.standard_normal(2)
                e2 = float(v @ v)
                bq = b_norm_sq(v, sigma, eta)
                assert e2 / 3.0 <= bq * (1 + 1e-12)
                assert bq <= e2 * (1 + 1e-12)


class TestDecay:
    def test_t_zero_is_initial_norm(self, rng):
        v = rng.standard_normal(2)
        assert theoretical_B_norm_decay(v, 0.8, 0.5, 0) == pytest.approx(
            b_norm_sq(v, 0.8, 0.5))

    def test_exact_geometric_decay(self, rng):
        # iterating the dynamics matrix matches the closed form to 1e-10
        for _ in range(10):
            sigma = float(rng.uniform(0.2, 1.5))
            eta = float(rng.uniform(0.1, 0.9)) / sigma
            P = dynamics_matrix(sigma, eta)
            z = rng.standard_normal(2)
            for t in range(201):
                want = theoretical_B_norm_decay(z, sigma, eta, t)
                if t:
                    zt = np.linalg.matrix_power(P, t) @ z
                else:
                    zt = z
                got = b_norm_sq(zt, sigma, eta)
                assert got == pytest.approx(want, rel=1e-10)

    def test_arithmetic_example(self):
        z = np.array([1.0, 0.0])
        val = theoretical_B_norm_decay(z, 1.0, 0.2, 10)
        assert val == pytest.approx(0.96 ** 10 * b_norm_sq(z, 1.0, 0.2))


class TestAverageBound:
    def test_envelope_on_simulated_averages(self):
        sigma, eta = 1.0, 0.25
        P = dynamics_matrix(sigma, eta)
        z0 = np.array([1.0, 1.0])
        z = z0.copy()
        avg = np.zeros(2)
        targets = {10, 100, 1000}
        for K in range(1, 1001):
            z = P @ z
            avg += (z - avg) / K
            if K in targets:
                upper, lower = theoretical_average_bound(z0, sigma, eta, K)
                val = math.sqrt(b_norm_sq(avg, sigma, eta))
                assert val <= upper * (1 + 1e-9)
                assert val >= lower * (1 - 1e-9)

    def test_upper_vanishes_lower_positive(self):
        z0 = np.array([2.0, -1.0])
        prev_upper = math.inf
        for K in (10, 1000, 100000):
            upper, lower = theoretical_average_bound(z0, 0.7, 0.5, K)
            assert upper < prev_upper
            assert lower > 0
            prev_upper = upper


class TestToySeries:
    def test_series_shapes_and_start(self):
        plain, restarted = two_dim_toy_series(50, 0.2, 25)
        assert plain.shape == (51, 2) and restarted.shape == (51, 2)
        assert tuple(plain[0]) == (1.0, 1.0)
        assert tuple(restarted[0]) == (1.0, 1.0)

    def test_no_restart_series_is_exact_recurrence(self):
        plain, _ = two_dim_toy_series(50, 0.2, 25)
        P = dynamics_matrix(1.0, 0.2)
        z = np.array([1.0, 1.0])
        for t in range(1, 51):
            z = P @ z
            assert np.max(np.abs(plain[t] - z)) <= 1e-12

    def test_restarted_series_is_averaged_recurrence(self):
        # average the iterates, and every 25 steps restart from the average
        _, restarted = two_dim_toy_series(50, 0.2, 25)
        P = dynamics_matrix(1.0, 0.2)
        z = np.array([1.0, 1.0])
        for t in range(1, 51):
            inner = (t - 1) % 25 + 1
            z = P @ z
            avg = z.copy() if inner == 1 else avg + (z - avg) / inner
            assert np.max(np.abs(restarted[t] - avg)) <= 1e-12
            if inner == 25:
                z = avg

    def test_restarted_final_distance_smaller(self):
        plain, restarted = two_dim_toy_series(50, 0.2, 25)
        assert np.linalg.norm(restarted[-1]) < np.linalg.norm(plain[-1])


class TestScalingExperimentSmall:
    def test_small_run_shape(self):
        # a light configuration: full windows are exercised in acceptance
        rep = table3_scaling_experiment([4, 8], 1e-3,
                                        avg_kappa=4, avg_eps=(1e-1, 1e-2))
        modes = {(k, m) for k, m, _ in rep.rows}
        assert (4.0, "last") in modes and (8.0, "restarted") in modes
        assert all(iters is not None for _, _, iters in rep.rows)
        assert rep.last_slope > rep.restarted_slope
        csv_rows = rep.csv_rows()
        assert csv_rows[0] == ("kappa", "mode", "iterations")

    def test_recorded_rows(self):
        # the iteration counts of the paper-scale run at kappa = 4, 8
        rep = table3_scaling_experiment([4, 8], 1e-6, avg_kappa=4, avg_eps=(1e-2, 1e-3))
        assert rep.rows == [(4.0, "last", 831), (4.0, "restarted", 218),
                            (8.0, "last", 3332), (8.0, "restarted", 439)]
        assert rep.average_rows == [(1e-2, 495), (1e-3, 5000)]

    def test_validation(self):
        with pytest.raises(ValueError):
            table3_scaling_experiment([], 1e-3)
        with pytest.raises(ValueError):
            table3_scaling_experiment([1.5], 1e-3)
        with pytest.raises(ValueError):
            table3_scaling_experiment([4], 0.9)
