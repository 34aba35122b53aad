import math
from dataclasses import replace

import numpy as np
import pytest

from restartlp import (
    DiagonalBilinear,
    RandomLpKnownOptimum,
    RestartScheme,
    SaddlePoint,
    SolveOptions,
    SparseMatrix,
    StandardFormLp,
    StepConfig,
    generate,
    pdhg_step,
    power_method_sigma_max,
    table3_scaling_experiment,
    two_dim_toy_series,
)
from restartlp import bilinear, cli, restarts
from restartlp.steps import EGM, PDHG

from oracles import (
    SpectralBlock,
    b_metric_matrix,
    b_norm_sq,
    dynamics_matrix,
    stacked_observe_numpy,
    theoretical_average_bound,
    theoretical_B_norm_decay,
)


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
        plain, restarted = two_dim_toy_series()
        assert plain.shape == (51, 2) and restarted.shape == (51, 2)
        assert tuple(plain[0]) == (1.0, 1.0)
        assert tuple(restarted[0]) == (1.0, 1.0)

    def test_no_restart_series_is_exact_recurrence(self):
        plain, _ = two_dim_toy_series()
        P = dynamics_matrix(1.0, 0.2)
        z = np.array([1.0, 1.0])
        for t in range(1, 51):
            z = P @ z
            assert np.max(np.abs(plain[t] - z)) <= 1e-12

    def test_restarted_series_is_averaged_recurrence(self):
        # average the iterates, and every 25 steps restart from the average
        _, restarted = two_dim_toy_series()
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
        plain, restarted = two_dim_toy_series()
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
        # the iteration counts of the paper-scale run.  The average rows at
        # 1e-3 and 1e-4 are roundoff ties: |avg_K| K / d0 reads
        # 4.999999999999987 at K = 5000 and 5.000000000000052 at K = 50000,
        # so any change in the rounding of a PDHG step or of the
        # running-average update moves them to 5001 or 50000
        rep = table3_scaling_experiment([4, 8, 16, 32], 1e-6, avg_kappa=4,
                                        avg_eps=(1e-2, 1e-3, 1e-4))
        assert rep.rows == [(4.0, "last", 831), (4.0, "restarted", 218),
                            (8.0, "last", 3332), (8.0, "restarted", 439),
                            (16.0, "last", 13396), (16.0, "restarted", 880),
                            (32.0, "last", 53714), (32.0, "restarted", 1095)]
        assert rep.average_rows == [(1e-2, 495), (1e-3, 5000), (1e-4, 50001)]
        assert rep.last_slope == pytest.approx(2.005025959608589, rel=1e-12)
        assert rep.restarted_slope == pytest.approx(0.7988875073124124, rel=1e-12)
        assert rep.average_slope == pytest.approx(1.0021867456026152, rel=1e-12)

    def test_rows_in_any_kappa_order(self):
        # the stacked run holds a block per kappa in the caller's order, and
        # the rows keep it, repeats included
        kwargs = dict(avg_kappa=8, avg_eps=(1e-1, 1e-2))
        rep = table3_scaling_experiment([8, 4, 8, 3], 1e-3, **kwargs)
        alone = {k: table3_scaling_experiment([k], 1e-3, **kwargs).rows for k in (3, 4, 8)}
        assert rep.rows == alone[8] + alone[4] + alone[8] + alone[3]
        assert rep.average_rows == table3_scaling_experiment([4], 1e-3, **kwargs).average_rows

    def test_unreached_rows_are_none(self):
        rep = table3_scaling_experiment([4, 64], 1e-6, avg_eps=(1e-1, 1e-4), cap=1000)
        assert rep.rows == [(4.0, "last", 831), (4.0, "restarted", 218),
                            (64.0, "last", None), (64.0, "restarted", None)]
        assert rep.average_rows == [(1e-1, 43), (1e-4, None)]


def _same_report(got, want):
    assert got.rows == want.rows
    assert got.average_rows == want.average_rows
    for name in ("last_slope", "restarted_slope", "average_slope"):
        a, b = getattr(got, name), getattr(want, name)
        assert a == b or (math.isnan(a) and math.isnan(b)), name


def _sums(values):
    """The left-to-right and the pairwise sums of squares of one block's
    four values."""
    a, b, c, d = values
    return a * a + b * b + c * c + d * d, (a * a + b * b) + (c * c + d * d)


def _separating_iteration(values, at_most=math.inf):
    """(t, v) for the first iteration t (from 1) whose left-to-right value v
    is at most ``at_most`` and lies below every earlier one and below every
    pairwise value up to t, so that a threshold equal to v is first met at
    t by the left-to-right sum and later by the pairwise one.  ``values``
    holds the (left-to-right, pairwise) pair of each iteration."""
    for k in range(1, len(values)):
        v = values[k][0]
        if (v <= at_most and v < min(s for s, _ in values[:k])
                and v < min(p for _, p in values[:k + 1])):
            return k + 1, v
    raise AssertionError("no iteration separates the two sums")


class TestScalarObserve:
    """The stacked run's hook and the restarted mode test a sum of squares
    summed left to right in Python floats (:func:`bilinear._sum_sq`).  Away
    from ties they decide as a hook testing in numpy does
    (:func:`oracles.stacked_observe_numpy`).  At a threshold equal to the
    left-to-right value of an iteration where a sum in another order reads
    more, the row is that iteration, whatever order a BLAS dot adds in."""

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_equals_numpy_hook(self, eps, monkeypatch):
        # the default avg_eps holds the roundoff ties at 5000 and 50001
        kappas = [2, 3, 4, 8, 16]
        rep = table3_scaling_experiment(kappas, eps)
        assert rep.average_rows == [(1e-2, 495), (1e-3, 5000), (1e-4, 50001)]
        monkeypatch.setattr(bilinear, "_stacked_observe", stacked_observe_numpy)
        _same_report(rep, table3_scaling_experiment(kappas, eps))

    def test_last_iterate_row_at_eps_equal_to_the_scalar_ratio(self):
        problem, _ = generate(DiagonalBilinear((1.0 / 8.0, 1.0)))
        (index,) = restarts._block_indices([problem])
        ratios = []

        def record(t, z, average):
            ratios.append(tuple(s / 4.0 for s in _sums(z[index].tolist())))
            return False

        bilinear._pdhg_run(problem, 0.5, RestartScheme.none(), bilinear._ones(2), 300, record)
        first, eps = _separating_iteration(ratios, at_most=0.5)
        rep = table3_scaling_experiment([4, 8], eps, avg_eps=(1e-1,))
        assert rep.rows[2] == (8.0, "last", first)

    def test_average_row_at_a_level_equal_to_the_scalar_norm(self):
        # the paper's incremental average of a kappa-4 block
        problem, _ = generate(DiagonalBilinear((1.0 / 4.0, 1.0)))
        (index,) = restarts._block_indices([problem])
        mean, norms = [], []

        def record(t, z, average):
            nonlocal mean
            v = z[index].tolist()
            mean = v if t == 1 else [m + (x - m) / t for m, x in zip(mean, v)]
            norms.append(tuple(math.sqrt(s) for s in _sums(mean)))
            return False

        bilinear._pdhg_run(problem, 0.5, RestartScheme.none(), bilinear._ones(2), 300, record)
        first, level = _separating_iteration(norms)
        # a level of e |z0| for |z0| = 2
        rep = table3_scaling_experiment([4], 1e-2, avg_kappa=4, avg_eps=(level / 2.0,))
        assert rep.average_rows == [(level / 2.0, first)]

    def test_restarted_row_at_eps_equal_to_the_scalar_ratio(self):
        # the running average of the run restarted every t* iterations
        kappa = 8.0
        problem, _ = generate(DiagonalBilinear((1.0 / kappa, 1.0)))
        config = StepConfig(PDHG, 0.5)
        tstar = restarts.fixed_frequency_tstar(config.sufficient_decay_c,
                                               config.target_proximity_q, 1.0 / kappa,
                                               restarts.DEFAULT_BETA)
        ratios = []

        def record(t, z, average):
            ratios.append(tuple(s / 4.0 for s in _sums(average().tolist())))
            return False

        bilinear._pdhg_run(problem, 0.5, RestartScheme.fixed(tstar), bilinear._ones(2), 300,
                           record)
        first, eps = _separating_iteration(ratios, at_most=0.5)
        rep = table3_scaling_experiment([kappa], eps, avg_eps=(1e-1,))
        assert rep.rows[1] == (kappa, "restarted", first)


class TestStackedRun:
    """A stack of lone problems (:func:`restartlp.restarts._stack`) repeats
    each lone run bit for bit: Table 3's kappa blocks, a matrix of its own
    each, and the primal-weight tuner's rescaled copies of one LP at
    omega = 1, one per grid weight; and its blocks read back alike wherever
    they are read."""

    KAPPAS = (4.0, 5.5, 4.0, 23.0, 2.0, 32.0)
    ITERATIONS = 300

    @classmethod
    def _record(cls, lane, indices, z0=None):
        # each block's iterate and running average at every iteration, read
        # at its indices
        seen = []

        def observe(t, z, average):
            avg = average()
            seen.append([(z[index], avg[index]) for index in indices])
            return False

        options = SolveOptions(lane.config, RestartScheme.none(), kkt_tol=0.0,
                               iteration_limit=cls.ITERATIONS, check_cadence=cls.ITERATIONS)
        restarts._run_lane(lane, options, z0=z0, observe=observe)
        assert len(seen) == cls.ITERATIONS
        return seen

    @staticmethod
    def _assert_blocks_repeat(stacked, lones):
        for j, lone in enumerate(lones):
            for t, (row, ((lone_z, lone_avg),)) in enumerate(zip(stacked, lone)):
                z, avg = row[j]
                assert z.tobytes() == lone_z.tobytes(), (j, t)
                assert avg.tobytes() == lone_avg.tobytes(), (j, t)

    @staticmethod
    def _lone_index(problem):
        return restarts._block_indices([problem])

    def test_blocks_equal_lone_runs(self):
        # Table 3's stack: a matrix of its own per kappa
        lones = [generate(DiagonalBilinear((1.0 / kappa, 1.0)))[0] for kappa in self.KAPPAS]
        stack = restarts._stack(lones)
        config = StepConfig(PDHG, 0.5)
        stacked = self._record(restarts._SaddleLane(stack, config),
                               restarts._block_indices(lones), bilinear._ones(stack.n))
        runs = [self._record(restarts._SaddleLane(lone, config), self._lone_index(lone),
                             bilinear._ones(2)) for lone in lones]
        self._assert_blocks_repeat(stacked, runs)
        for run in runs:
            # and the iterate still decays: the run is not trivially zero
            last_z = run[-1][0][0]
            assert 0.0 < float(last_z @ last_z) < 4.0

    @pytest.mark.parametrize("method", [PDHG, EGM])
    def test_copies_at_several_omegas_equal_lone_runs(self, method):
        # the tuner's stack: copies of the rescaled LP a lone solve steps on,
        # each read back through its factors [1/s; s]
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 0))
        sigma = power_method_sigma_max(problem.A)
        lipschitz = 1.01 * sigma if method == EGM else None
        lane, _ = restarts._make_lane(problem, StepConfig(method, 0.9 / sigma,
                                                          lipschitz=lipschitz))
        omegas = [0.25, 1.0, 4.0, 16.0]
        copies, blocks = cli._omega_copies(lane, omegas)
        assert copies.config == replace(lane.config, omega=1.0)
        stacked = [[(z * unscale, avg * unscale) for (z, avg), (_, unscale) in zip(row, blocks)]
                   for row in self._record(copies, [index for index, _ in blocks])]
        runs = [self._record(restarts._SaddleLane(lane.problem, replace(lane.config, omega=w)),
                             self._lone_index(lane.problem)) for w in omegas]
        self._assert_blocks_repeat(stacked, runs)
        assert len({run[-1][0][0].tobytes() for run in runs}) == len(omegas)

    def test_tuner_copies_read_the_blocks_table3_reads(self, monkeypatch):
        seen = []
        stacked_observe = bilinear._stacked_observe

        def capture(blocks, *args):
            seen.append(blocks)
            return stacked_observe(blocks, *args)

        monkeypatch.setattr(bilinear, "_stacked_observe", capture)
        table3_scaling_experiment([8, 4, 16], 1e-2, avg_eps=(1e-1,))
        (blocks,) = seen
        k = len(blocks)   # the average's block, then one per kappa
        assert k == 4
        lone, _ = generate(DiagonalBilinear((0.5, 1.0)))
        lane = restarts._SaddleLane(lone, StepConfig(PDHG, 0.5))
        _, copies = cli._omega_copies(lane, cli.OMEGA_GRID[:k])
        vec = np.random.default_rng(0).standard_normal(4 * k)
        for j, (index, (copy_index, _)) in enumerate(zip(blocks, copies)):
            block = vec[copy_index]
            assert block.tobytes() == vec[index].tobytes(), j
            # [x_j; y_j]: y_j lies past the k blocks of x
            assert np.array_equal(block, vec[[2 * j, 2 * j + 1, 2 * k + 2 * j, 2 * k + 2 * j + 1]])

    def test_layout(self):
        # block j of [x_1; ...; x_k; y_1; ...; y_k] is [x_j; y_j], its A on
        # rows and columns of its own, read into an array of its own
        lones = [generate(DiagonalBilinear((1.0 / kappa, 1.0)))[0] for kappa in (4.0, 8.0, 16.0)]
        stack = restarts._stack(lones)
        assert (stack.m, stack.n, stack.nonneg) == (6, 6, False)
        assert np.array_equal(stack.A.to_dense(),
                              np.diag([-0.25, -1.0, -0.125, -1.0, -0.0625, -1.0]))
        assert not stack.c.any() and not stack.b.any()
        vec = np.arange(12.0)
        got = [vec[index] for index in restarts._block_indices(lones)]
        assert [v.tolist() for v in got] == [[0, 1, 6, 7], [2, 3, 8, 9], [4, 5, 10, 11]]
        assert not any(np.shares_memory(v, vec) for v in got)
        # blocks of different shapes: a 1x2 LP, then a 3x1 one
        one = StandardFormLp(np.array([1.0, 2.0]), SparseMatrix.from_dense([[1.0, 1.0]]),
                             np.array([3.0]))
        two = StandardFormLp(np.array([4.0]), SparseMatrix.from_dense([[1.0], [2.0], [3.0]]),
                             np.array([5.0, 6.0, 7.0]))
        stack = restarts._stack([one, two])
        assert np.array_equal(stack.c, [1, 2, 4]) and np.array_equal(stack.b, [3, 5, 6, 7])
        assert stack.nonneg and stack.A.shape == (4, 3)
        assert [index.tolist() for index in restarts._block_indices([one, two])] == [
            [0, 1, 3], [2, 4, 5, 6]]

    def test_validation(self):
        with pytest.raises(ValueError):
            table3_scaling_experiment([], 1e-3)
        with pytest.raises(ValueError):
            table3_scaling_experiment([1.5], 1e-3)
        with pytest.raises(ValueError):
            table3_scaling_experiment([4], 0.9)
        # each rejected before any run; a NaN kappa would run to the cap
        for kappas, avg_kappa in (([math.nan], 4), ([4], math.nan), ([4], 1.5)):
            with pytest.raises(ValueError, match="kappa values must be >= 2"):
                table3_scaling_experiment(kappas, 1e-3, avg_kappa=avg_kappa)
        with pytest.raises(ValueError, match="kappa values must be >= 2 and finite"):
            table3_scaling_experiment([math.inf], 1e-3)
