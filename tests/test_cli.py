import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from restartlp import cli

from restartlp.cli import (
    EXIT_INPUT_ERROR,
    EXIT_ITERATION_LIMIT,
    EXIT_OPTIMAL,
    OMEGA_GRID,
    RunConfig,
    cmd_solve,
    main,
    parse_generator_spec,
    rank_fixed_runs,
    tune_primal_weight,
)
from restartlp import lp_core
from restartlp.ingest import DiagonalBilinear, RandomLpKnownOptimum, TwoDimToy, generate
from restartlp.lp_core import SparseMatrix, StandardFormLp, power_method_sigma_max
from restartlp.restarts import RestartScheme, SolveOptions, Status, run_restarted
from restartlp.steps import ADMM, EGM, PDHG, PROJECTION_TOL, StepConfig

TINY_MPS = """\
NAME          TINY
ROWS
 N  COST
 E  BAL
COLUMNS
    X1        COST      1.0        BAL       1.0
    X2        COST      1.0        BAL       1.0
RHS
    RHS1      BAL       1.0
ENDATA
"""

# every stored coefficient is zero
ZERO_MPS = TINY_MPS.replace("1.0", "0.0")


def read_trace(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestGeneratorSpec:
    def test_forms(self):
        assert isinstance(parse_generator_spec("toy"), TwoDimToy)
        spec = parse_generator_spec("diagonal:0.5,1.0")
        assert spec == DiagonalBilinear((0.5, 1.0))
        spec = parse_generator_spec("random:m=5,n=10,density=0.5,seed=7")
        assert spec == RandomLpKnownOptimum(5, 10, 0.5, 7)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_generator_spec("random:n=10")
        with pytest.raises(ValueError):
            parse_generator_spec("mystery:1")


class TestSolve:
    def test_tiny_fixture_optimal(self, tmp_path):
        mps = tmp_path / "tiny.mps"
        mps.write_text(TINY_MPS)
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "summary.json"
        code = main(["solve", "--input", str(mps), "--trace-out", str(trace),
                     "--summary-out", str(summary)])
        assert code == EXIT_OPTIMAL
        data = json.loads(summary.read_text())
        assert data["status"] == "optimal"
        assert data["final_kkt_error"] <= 1e-6
        assert set(data) == {"status", "iterations", "final_kkt_error",
                             "restart_count", "restart_lengths",
                             "wall_time_seconds", "eta", "scaling", "omega",
                             "problem"}
        # the LP is rescaled, with eta * sigma_max kept
        scaling = data["scaling"]
        assert set(scaling) == {"sigma_max", "sigma_max_scaled", "eta"}
        assert scaling["eta"] * scaling["sigma_max_scaled"] == pytest.approx(
            data["eta"] * scaling["sigma_max"], rel=1e-12)
        rows = read_trace(trace)
        assert rows[0] == ["iteration", "outer_n", "inner_t", "normalized_gap",
                           "kkt_avg", "kkt_last", "radius", "restart_flag",
                           "elapsed_seconds"]

    def test_iteration_limit_exit_code(self, tmp_path):
        code = main(["solve", "--generate", "random:m=20,n=40,density=0.3,seed=1",
                     "--iteration-limit", "10", "--kkt-tol", "1e-12"])
        assert code == EXIT_ITERATION_LIMIT

    def test_admm_with_tuned_eta_optimal(self):
        code = main(["solve", "--generate", "random:m=20,n=40,density=0.3,seed=2",
                     "--method", "admm", "--tune-eta"])
        assert code == EXIT_OPTIMAL

    def test_missing_file_is_input_error(self):
        assert main(["solve", "--input", "/nonexistent/file.mps"]) == EXIT_INPUT_ERROR

    def test_parse_error_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.mps"
        bad.write_text("ROWS\n N COST\nCOLUMNS\n    X1 NOPE 1.0\nENDATA\n")
        assert main(["solve", "--input", str(bad)]) == EXIT_INPUT_ERROR

    def test_bad_flag_combination(self):
        # argparse errors mapped onto the input-error code
        assert main(["solve", "--generate", "toy", "--scheme", "bogus"]) \
            == EXIT_INPUT_ERROR

    def test_fixed_scheme_needs_length(self):
        assert main(["solve", "--generate", "toy", "--scheme", "fixed"]) \
            == EXIT_INPUT_ERROR

    def test_trace_deterministic_modulo_wall_time(self, tmp_path):
        traces = []
        for tag in ("a", "b"):
            trace = tmp_path / f"trace_{tag}.csv"
            code = main(["solve", "--generate",
                         "random:m=15,n=30,density=0.3,seed=3",
                         "--trace-out", str(trace), "--seed", "9"])
            assert code == EXIT_OPTIMAL
            rows = read_trace(trace)
            traces.append([row[:-1] for row in rows])  # drop elapsed_seconds
        assert traces[0] == traces[1]

    def test_ppm_on_an_lp_is_input_error(self, capsys):
        code = main(["solve", "--generate", "random:m=20,n=40,density=0.3,seed=1",
                     "--method", "ppm"])
        assert code == EXIT_INPUT_ERROR
        assert "unconstrained bilinear" in capsys.readouterr().err

    def test_divergence_exit_code(self):
        code = main(["solve", "--generate", "random:m=10,n=20,density=0.4,seed=2",
                     "--eta", "100.0", "--scheme", "none"])
        assert code == 4

    @pytest.mark.parametrize("command", [["solve"], ["solve", "--method", "egm"],
                                         ["tune-omega"]])
    def test_all_zero_matrix_is_input_error(self, command, tmp_path, capsys):
        # no step size follows from sigma_max(A) = 0
        mps = tmp_path / "zero.mps"
        mps.write_text(ZERO_MPS)
        assert main(command + ["--input", str(mps)]) == EXIT_INPUT_ERROR
        assert "all-zero" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1e-6"])
    def test_bad_kkt_tol_is_input_error(self, tol, capsys):
        code = main(["solve", "--generate", "random:m=4,n=8,seed=0", f"--kkt-tol={tol}"])
        assert code == EXIT_INPUT_ERROR
        assert "KKT tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("sigmas", ["nan,1", "inf,1"])
    def test_non_finite_diagonal_is_input_error(self, sigmas, capsys):
        # before the power method, whose estimate on such a matrix is NaN
        code = main(["solve", "--generate", f"diagonal:{sigmas}"])
        assert code == EXIT_INPUT_ERROR
        assert "sigmas must be positive and finite" in capsys.readouterr().err

    def test_nan_kappa_is_input_error(self, tmp_path, capsys):
        # before Table 3's runs, which a NaN kappa would run to their cap
        code = main(["bilinear-lab", "--kappas", "nan", "--out-dir", str(tmp_path)])
        assert code == EXIT_INPUT_ERROR
        assert "kappa values must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--eta", "--omega"])
    def test_non_finite_step_size_is_input_error(self, flag, capsys):
        # before any work: not a run reported as diverged
        code = main(["solve", "--generate", "toy", flag, "inf"])
        assert code == EXIT_INPUT_ERROR
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method,start", [(PDHG, "nan,1"), (PDHG, "1,-inf"),
                                              (ADMM, "1,2"), (ADMM, "0,0")])
    def test_bad_start_is_input_error(self, method, start, capsys):
        # a non-finite start, or any given start with ADMM, whose points
        # --start cannot write
        code = main(["solve", "--generate", "diagonal:1.0", "--method", method,
                     "--start", start])
        assert code == EXIT_INPUT_ERROR
        assert "start" in capsys.readouterr().err


def lone_table(problem, method, eta, iterations, lipschitz=None):
    """The tuner's table from one non-restarted run_restarted call per
    omega, each read as its checkpoint reads it."""
    table = []
    for omega in OMEGA_GRID:
        options = SolveOptions(StepConfig(method, eta, omega=omega, lipschitz=lipschitz),
                               RestartScheme.none(), kkt_tol=0.0, iteration_limit=iterations,
                               check_cadence=iterations)
        result = run_restarted(problem, options)
        table.append((omega, math.inf if result.status == Status.DIVERGED else result.kkt_last))
    return table


def planted(m=20, n=40, density=0.3, seed=1):
    problem, _ = generate(RandomLpKnownOptimum(m, n, density, seed))
    return problem, power_method_sigma_max(problem.A)


class TestTuneOmega:
    def test_grid_is_eleven_powers_of_four(self):
        assert len(OMEGA_GRID) == 11
        assert OMEGA_GRID[0] == pytest.approx(4.0 ** -5)
        assert OMEGA_GRID[-1] == pytest.approx(4.0 ** 5)
        assert min(OMEGA_GRID) < 1.0 < max(OMEGA_GRID)

    def test_symmetric_instance_prefers_one(self):
        # min x s.t. x = 1, x >= 0 with |A| = |b| = |c| = 1.  The KKT error
        # is not symmetric in omega <-> 1/omega (only x is projected), but in
        # exact arithmetic omega = 1 is the strict arg-min at 60 iterations:
        # 60-digit PDHG gives 4.8e-22 there, 2.2e-21 at omega = 4 and 8.6e-16
        # at omega = 1/16.  In double precision several omegas end at or
        # below roundoff, so errors up to 64 eps (1 + |b| + |c|) are ties.
        from restartlp import SparseMatrix, StandardFormLp

        A = SparseMatrix(1, 1, [0], [0], [1.0])
        problem = StandardFormLp(np.array([1.0]), A, np.array([1.0]))
        omega, table = tune_primal_weight(problem, PDHG, 0.9, iterations=60)
        assert omega in {w for w, _ in table}
        floor = 64 * np.finfo(np.float64).eps * (
            1 + np.linalg.norm(problem.b) + np.linalg.norm(problem.c))
        best = min(err for _, err in table)
        argmin = {w for w, err in table if err <= max(best * (1 + 1e-9), floor)}
        assert 1.0 in argmin
        assert omega == 1.0

    def test_admm_eta_tie_below_the_dual_tolerance_picks_one(self):
        # the converged runs differ by less than the tolerance of the dual
        # estimate behind each ADMM KKT error: eta = 4 reads 5.8e-13 and
        # eta = 1 reads 1.7e-12, which is a tie, so eta = 1 is kept
        problem, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, 2))
        eta, table = cli._tune_admm_eta(problem, iterations=500)
        errors = dict(table)
        assert errors[4.0] < errors[1.0] < cli._roundoff_floor(problem, PROJECTION_TOL)
        assert errors[1.0] > cli._roundoff_floor(problem)
        assert eta == 1.0

    def test_budget_override_returns_grid_member(self):
        problem, _ = generate(RandomLpKnownOptimum(8, 16, 0.4, 1))
        omega, table = tune_primal_weight(problem, PDHG, 0.05, iterations=100)
        assert omega in OMEGA_GRID or omega == 1.0
        assert len(table) == 11

    def test_divergent_step_picks_one_without_overflow_warnings(self):
        # eta = 50 / sigma diverges at every omega; the overflow must stay
        # inside the solve (the suite turns a RuntimeWarning into an error)
        problem, _ = generate(RandomLpKnownOptimum(10, 20, 0.4, 0))
        sigma = power_method_sigma_max(problem.A)
        omega, table = tune_primal_weight(problem, PDHG, 50.0 / sigma, iterations=1000)
        assert omega == 1.0
        assert [w for w, _ in table] == list(OMEGA_GRID)
        assert all(err == math.inf for _, err in table)

    def test_cli_command(self, tmp_path):
        summary = tmp_path / "omega.json"
        code = main(["tune-omega", "--generate",
                     "random:m=8,n=16,density=0.4,seed=1",
                     "--tune-iterations", "50",
                     "--summary-out", str(summary)])
        assert code == EXIT_OPTIMAL
        data = json.loads(summary.read_text())
        assert "omega" in data and len(data["table"]) == 11

    # tune_primal_weight runs the grid as the blocks of one stacked run;
    # its table must equal that of the per-omega runs bit for bit

    @pytest.fixture
    def loop_passes(self, monkeypatch):
        calls = []
        real = cli._run_lane

        def spy(lane, options, *args):
            calls.append(lane.problem.A.shape)
            return real(lane, options, *args)

        monkeypatch.setattr(cli, "_run_lane", spy)
        return calls

    @pytest.mark.parametrize("method", [PDHG, EGM])
    def test_planted_lp(self, method, loop_passes):
        problem, sigma = planted()
        lipschitz = 1.01 * sigma if method == EGM else None
        omega, table = tune_primal_weight(problem, method, 0.9 / sigma, iterations=400,
                                          lipschitz=lipschitz)
        assert table == lone_table(problem, method, 0.9 / sigma, 400, lipschitz)
        assert omega == cli._pick_on_grid(table, cli._roundoff_floor(problem))
        # one pass of the loop, over all eleven blocks
        assert loop_passes == [(11 * problem.m, 11 * problem.n)]

    @pytest.mark.parametrize("factor,iterations,diverged", [(1.5, 1000, 10), (2.0, 300, 5)])
    def test_overflowing_blocks_leave_the_others_alone(self, factor, iterations, diverged):
        # eta above 1/sigma: the runs at some omegas overflow within the
        # budget, the others converge (1.5) or stay finite (2.0)
        problem, sigma = planted(10, 20, 0.4, 0)
        _, table = tune_primal_weight(problem, PDHG, factor / sigma, iterations=iterations)
        assert table == lone_table(problem, PDHG, factor / sigma, iterations)
        assert sum(err == math.inf for _, err in table) == diverged

    def test_unconstrained_diagonal_bilinear(self, rng):
        # nonneg=False: no rescaling, the blocks step on the caller's data
        sigmas = np.linspace(0.2, 1.0, 6)
        A = SparseMatrix(6, 6, np.arange(6), np.arange(6), sigmas)
        problem = StandardFormLp(rng.standard_normal(6), A, rng.standard_normal(6),
                                 nonneg=False)
        for method in (PDHG, EGM):
            _, table = tune_primal_weight(problem, method, 0.9, iterations=300)
            assert table == lone_table(problem, method, 0.9, 300)
            assert all(math.isfinite(err) for _, err in table)

    @pytest.mark.parametrize("blocks,passes", [(0, [1] * 11), (4, [4, 4, 3])],
                             ids=["below-one-block", "four-blocks"])
    def test_groups_under_the_nonzero_bound(self, blocks, passes, monkeypatch, loop_passes):
        problem, sigma = planted()
        # a bound below one block's nonzeros runs each omega alone
        bound = blocks * problem.A.nnz if blocks else problem.A.nnz - 1
        monkeypatch.setattr(cli, "_STACK_NNZ", bound)
        _, table = tune_primal_weight(problem, PDHG, 0.9 / sigma, iterations=300)
        assert table == lone_table(problem, PDHG, 0.9 / sigma, 300)
        assert loop_passes == [(k * problem.m, k * problem.n) for k in passes]

    def test_groups_count_vector_entries_beyond_the_nonzeros(self, monkeypatch, loop_passes):
        # a diagonal has n + m = 2 nnz: a bound of 4 (n + m) stacks 4 blocks
        A = SparseMatrix(6, 6, np.arange(6), np.arange(6), np.linspace(0.2, 1.0, 6))
        problem = StandardFormLp(np.ones(6), A, np.ones(6), nonneg=False)
        monkeypatch.setattr(cli, "_STACK_NNZ", 4 * 12)
        _, table = tune_primal_weight(problem, PDHG, 0.9, iterations=50)
        assert table == lone_table(problem, PDHG, 0.9, 50)
        assert loop_passes == [(24, 24), (24, 24), (18, 18)]

    def test_fallback_product_path_keeps_the_table(self, monkeypatch):
        # without scipy's private kernels the products run through
        # csr_array @ and csc_array @, which sum in stored order too
        problem, sigma = planted()
        monkeypatch.setattr(lp_core, "_csr_matvec", lp_core._matvec_by_operator)
        monkeypatch.setattr(lp_core, "_csc_matvec", lp_core._rmatvec_by_operator)
        _, table = tune_primal_weight(problem, PDHG, 0.9 / sigma, iterations=300)
        assert table == lone_table(problem, PDHG, 0.9 / sigma, 300)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_is_rejected_before_any_work(self, budget, monkeypatch, capsys):
        problem, _ = generate(RandomLpKnownOptimum(8, 16, 0.4, 1))
        loads = []
        monkeypatch.setattr(cli, "load_problem", lambda config: loads.append(config))
        monkeypatch.setattr(cli, "_make_lane", lambda *a: pytest.fail("a run started"))
        code = main(["tune-omega", "--generate", "random:m=8,n=16,density=0.4,seed=1",
                     "--tune-iterations", str(budget)])
        assert code == EXIT_INPUT_ERROR and loads == []
        assert f"tuning budget must be at least 1 iteration per run, not {budget}" \
            in capsys.readouterr().err
        with pytest.raises(ValueError, match="tuning budget"):
            tune_primal_weight(problem, PDHG, 0.1, iterations=budget)
        with pytest.raises(ValueError, match="tuning budget"):
            cli._tune_admm_eta(problem, iterations=budget)


class TestSweep:
    def test_comparator_two_key_rule(self):
        metrics = [
            ("fixed_4", 900, 1e-9),
            ("fixed_16", 300, 1e-9),
            ("fixed_64", None, 1e-3),
            ("fixed_256", None, 1e-5),
            ("fixed_1024", 300, 1e-8),
        ]
        ranked = [label for label, *_ in rank_fixed_runs(metrics)]
        assert ranked == ["fixed_1024", "fixed_16", "fixed_4",
                          "fixed_256", "fixed_64"]

    def test_sweep_on_toy(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep-restarts", "--generate", "toy", "--eta", "0.2",
                     "--iteration-limit", "3000", "--check-cadence", "1",
                     "--kkt-tol", "1e-9", "--out-dir", str(out)])
        assert code == EXIT_OPTIMAL
        rows = read_trace(out / "ranking.csv")
        assert rows[0] == ["rank", "run", "iterations_to_gap", "final_gap"]
        ranked = [r for r in rows[1:] if r[0] != "-"]
        assert len(ranked) == 9
        labels = {r[1] for r in rows[1:]}
        assert "adaptive" in labels and "no_restart" in labels
        # the best fixed length reaches the gap threshold before no-restart
        best_fixed = next(r for r in rows[1:] if r[0] == "1")
        no_restart = next(r for r in rows[1:] if r[1] == "no_restart")
        assert best_fixed[2] != ""
        if no_restart[2] != "":
            assert int(best_fixed[2]) <= int(no_restart[2])

    def test_prefix_equality_when_fixed_never_fires(self, tmp_path):
        # Fixed(4^9) never fires within an iteration limit below 4^9, so its
        # trace equals the no-restart trace.  The rescaled instance reaches
        # KKT 1e-6 unrestarted in 1470 iterations, so a tolerance of 0 makes
        # both runs stop at the limit.
        out = tmp_path / "prefix"
        for label, scheme_args in (("none", ["--scheme", "none"]),
                                   ("big", ["--scheme", "fixed",
                                            "--fixed-length", str(4 ** 9)])):
            code = main(["solve", "--generate",
                         "random:m=10,n=20,density=0.4,seed=4",
                         *scheme_args, "--iteration-limit", "30000",
                         "--kkt-tol", "0",
                         "--trace-out",
                         str(out.with_name(f"trace_{label}.csv"))])
            assert code == EXIT_ITERATION_LIMIT
        rows_none = read_trace(out.with_name("trace_none.csv"))
        rows_big = read_trace(out.with_name("trace_big.csv"))
        flag = rows_big[0].index("restart_flag")
        assert len(rows_big) > 1 and all(row[flag] == "0" for row in rows_big[1:])
        assert len(rows_none) == len(rows_big)
        # kkt columns agree on every row (gap radii differ by protocol:
        # no-restart evaluates the gap at the last iterate)
        for a, b in zip(rows_none[1:], rows_big[1:]):
            assert a[0] == b[0] and a[4] == b[4] and a[5] == b[5]


class TestBilinearLab:
    def test_outputs_and_row_counts(self, tmp_path):
        out = tmp_path / "lab"
        code = main(["bilinear-lab", "--kappas", "4,8", "--eps", "1e-3",
                     "--out-dir", str(out)])
        assert code == EXIT_OPTIMAL
        fig = read_trace(out / "figure1.csv")
        assert len(fig) - 1 == 50 * 2  # iterations x series count
        series = {row[0] for row in fig[1:]}
        assert series == {"no_restart", "fixed_25"}
        final_plain = [float(v) for v in fig[50][2:]]
        final_restart = [float(v) for v in fig[100][2:]]
        assert math.hypot(*final_restart) < math.hypot(*final_plain)
        scaling = read_trace(out / "scaling.csv")
        assert scaling[0] == ["kappa", "mode", "iterations"]

    def test_empty_kappas_usage_error(self, tmp_path):
        assert main(["bilinear-lab", "--kappas", "", "--out-dir",
                     str(tmp_path)]) == EXIT_INPUT_ERROR
