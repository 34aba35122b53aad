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
    main,
    parse_generator_spec,
    rank_fixed_runs,
    tune_primal_weight,
)
from restartlp.ingest import (DiagonalBilinear, RandomLpKnownOptimum, generate, parse_mps,
                              to_standard_form)
from restartlp.lp_core import SparseMatrix, StandardFormLp, power_method_sigma_max
from restartlp.restarts import RestartScheme, SolveOptions, Status, run_restarted
from restartlp.steps import ADMM, EGM, PDHG, PPM_BILINEAR, PROJECTION_TOL, StepConfig

from corpus import FEATURES_SEED, draw_features, highs, to_mps

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

# an E row with no entries and right-hand side 1: a'x = 0 cannot meet it
EMPTY_ROW_MPS = """\
NAME          EMPTYROW
ROWS
 N  COST
 E  BAL
 E  EMPTY
COLUMNS
    X1        COST      1.0        BAL       1.0
RHS
    RHS1      BAL       1.0        EMPTY     1.0
ENDATA
"""

# rows x1 + x2 = 1 and x1 + x2 = 2: Ax = b is inconsistent
DUPLICATE_ROW_MPS = """\
NAME          DUPROW
ROWS
 N  COST
 E  R1
 E  R2
COLUMNS
    X1        COST      1.0        R1        1.0
    X1        R2        1.0
    X2        COST      1.0        R1        1.0
    X2        R2        1.0
RHS
    RHS1      R1        1.0        R2        2.0
ENDATA
"""


def standard_form_mps(problem):
    """min c'x s.t. Ax = b, x >= 0 as MPS text, every value with all its
    digits."""
    lines = ["NAME          LP", "ROWS", " N  COST"]
    lines += [f" E  R{i}" for i in range(problem.m)]
    lines.append("COLUMNS")
    for j, cost in enumerate(problem.c.tolist()):
        lines.append(f"    X{j}  COST  {cost!r}")
        in_column = problem.A.cols == j
        for i, a in zip(problem.A.rows[in_column].tolist(), problem.A.vals[in_column].tolist()):
            lines.append(f"    X{j}  R{i}  {a!r}")
    lines.append("RHS")
    lines += [f"    RHS  R{i}  {b!r}" for i, b in enumerate(problem.b.tolist())]
    return "\n".join(lines + ["ENDATA", ""])


def read_trace(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestGeneratorSpec:
    def test_forms(self):
        assert parse_generator_spec("toy") == DiagonalBilinear((1.0,))
        spec = parse_generator_spec("diagonal:0.5,1.0")
        assert spec == DiagonalBilinear((0.5, 1.0))
        spec = parse_generator_spec("random:m=5,n=10,density=0.5,seed=7")
        assert spec == RandomLpKnownOptimum(5, 10, 0.5, 7)

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            parse_generator_spec("random:n=10")
        with pytest.raises(ValueError):
            parse_generator_spec("mystery:1")
        # a parameter that would not be read
        for spec in ("random:m=20,n=40,dens=0.9,sed=3", "random:m=20,n=40,seed=1,seed=2",
                     "toy:anything"):
            with pytest.raises(ValueError):
                parse_generator_spec(spec)


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
                             "problem", "primal_objective"}
        # min x1 + x2 s.t. x1 + x2 = 1
        assert data["primal_objective"] == pytest.approx(1.0, abs=1e-5)
        # the LP is rescaled, with eta * sigma_max kept
        scaling = data["scaling"]
        assert set(scaling) == {"sigma_max", "sigma_max_scaled", "eta"}
        assert scaling["eta"] * scaling["sigma_max_scaled"] == pytest.approx(
            data["eta"] * scaling["sigma_max"], rel=1e-12)
        rows = read_trace(trace)
        assert rows[0] == ["iteration", "outer_n", "inner_t", "normalized_gap",
                           "kkt_avg", "kkt_last", "radius", "restart_flag",
                           "elapsed_seconds"]

    def test_fixed_restarts_fire_at_the_fixed_length(self, tmp_path):
        # at the default cadence of 30 they fired at 90, the first
        # checkpoint at or past 64
        summary = tmp_path / "summary.json"
        code = main(["solve", "--generate", "random:m=20,n=40,density=0.3,seed=1",
                     "--scheme", "fixed", "--fixed-length", "64",
                     "--summary-out", str(summary)])
        assert code == EXIT_OPTIMAL
        lengths = json.loads(summary.read_text())["restart_lengths"]
        assert lengths and set(lengths) == {64}

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

    def test_bound_code_alone_is_input_error(self, tmp_path, capsys):
        # it raised IndexError, which left main with a traceback
        bad = tmp_path / "bad.mps"
        bad.write_text(TINY_MPS.replace("ENDATA", "BOUNDS\n FR\nENDATA"))
        assert main(["solve", "--input", str(bad)]) == EXIT_INPUT_ERROR
        assert "line 11: malformed BOUNDS line" in capsys.readouterr().err

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
                         "--trace-out", str(trace)])
            assert code == EXIT_OPTIMAL
            rows = read_trace(trace)
            traces.append([row[:-1] for row in rows])  # drop elapsed_seconds
        assert traces[0] == traces[1]

    def test_ppm_on_an_lp_is_input_error(self, capsys):
        code = main(["solve", "--generate", "random:m=20,n=40,density=0.3,seed=1",
                     "--method", "ppm"])
        assert code == EXIT_INPUT_ERROR
        assert "unconstrained bilinear" in capsys.readouterr().err

    def test_admm_on_an_inconsistent_model_is_input_error(self, tmp_path, capsys):
        # the projection onto Ax = b cannot meet its residual bound; it left
        # main as a traceback
        mps = tmp_path / "duplicate_row.mps"
        mps.write_text(DUPLICATE_ROW_MPS)
        assert main(["solve", "--input", str(mps), "--method", "admm"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: factored normal-equation solve failed")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("method", [PDHG, EGM, ADMM])
    def test_an_empty_row_that_excludes_zero_is_input_error(self, method, tmp_path, capsys):
        # PDHG ran to its iteration limit on it, at KKT error 1
        mps = tmp_path / "empty_row.mps"
        mps.write_text(EMPTY_ROW_MPS)
        assert main(["solve", "--input", str(mps), "--method", method]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err == ("error: row 'EMPTY' has no nonzero entry, so a'x = 0, "
                       "outside its interval [1.0, 1.0]\n")

    def test_sweep_exits_3_when_every_run_fails(self, tmp_path, capsys):
        mps = tmp_path / "duplicate_row.mps"
        mps.write_text(DUPLICATE_ROW_MPS)
        code = main(["sweep-restarts", "--input", str(mps), "--method", "admm"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.count(": failed (factored normal-equation solve failed") == 11, err
        assert err.count("error: factored normal-equation solve failed") == 1, err

    def test_sweep_exits_0_when_a_run_succeeds(self, monkeypatch, capsys):
        solve = cli.run_restarted

        def fail_unless_adaptive(problem, options):
            if options.scheme.kind != "adaptive":
                raise ValueError("boom")
            return solve(problem, options)

        monkeypatch.setattr(cli, "run_restarted", fail_unless_adaptive)
        code = main(["sweep-restarts", "--generate", "random:m=10,n=20,density=0.4,seed=2"])
        assert code == EXIT_OPTIMAL
        assert capsys.readouterr().err.count(": failed (boom)") == 10

    def test_divergence_exit_code(self):
        code = main(["solve", "--generate", "random:m=10,n=20,density=0.4,seed=2",
                     "--eta", "100.0", "--scheme", "none"])
        assert code == 4

    @pytest.mark.parametrize("command", [["solve"], ["solve", "--method", "egm"],
                                         ["tune-omega"], ["sweep-restarts"]])
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

    @pytest.mark.parametrize("sigmas", ["1e-170,3e-170", "1e200,3e200"],
                             ids=["underflow", "overflow"])
    def test_sigma_max_out_of_double_range_is_input_error(self, sigmas, capsys):
        # A'A v underflows to 0 or overflows from every start
        code = main(["solve", "--generate", f"diagonal:{sigmas}", "--start", "1,1,1,1"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "sigma_max cannot be estimated in double precision" in err
        assert err.count("error:") == 1 and err.count("\n") == 1, err

    @pytest.mark.parametrize("flag", ["--eta", "--omega"])
    def test_non_finite_step_size_is_input_error(self, flag, capsys):
        # before any work: not a run reported as diverged
        code = main(["solve", "--generate", "toy", flag, "inf"])
        assert code == EXIT_INPUT_ERROR
        assert "must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("method,spec,start", [
        (PDHG, "diagonal:1.0", "nan,1"), (PDHG, "diagonal:1.0", "1,-inf"),
        (ADMM, "random:m=4,n=8,seed=0", "1,2"), (ADMM, "random:m=4,n=8,seed=0", "0,0")],
        ids=["pdhg-nan,1", "pdhg-1,-inf", "admm-1,2", "admm-0,0"])
    def test_bad_start_is_input_error(self, method, spec, start, capsys):
        # a non-finite start, or any given start with ADMM, whose points
        # --start cannot write (ADMM runs on an LP only)
        code = main(["solve", "--generate", spec, "--method", method, "--start", start])
        assert code == EXIT_INPUT_ERROR
        assert "start" in capsys.readouterr().err


class TestPrimalObjective:
    """The summary's and the stdout line's primal objective is that of the
    problem given: an MPS model's, with its sense and constant, c'x for a
    generated LP, and none for a bilinear problem."""

    # the first HiGHS-solvable cases of the features family: 0, 4, 6 and 9
    # are maxima, and all but 1 have an objective constant
    @pytest.mark.parametrize("case", [0, 1, 3, 4, 6, 9])
    def test_mps_model_agrees_with_highs(self, case, tmp_path, capsys):
        case = draw_features(np.random.default_rng([FEATURES_SEED, case]))
        _, want = highs(case)
        mps = tmp_path / "case.mps"
        mps.write_text(to_mps(case))
        summary = tmp_path / "summary.json"
        code = main(["solve", "--input", str(mps), "--kkt-tol", "1e-8",
                     "--iteration-limit", "20000", "--summary-out", str(summary)])
        assert code == EXIT_OPTIMAL
        got = json.loads(summary.read_text())["primal_objective"]
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want)), (got, want)
        assert capsys.readouterr().out.endswith(f", primal objective {got:.12g}\n")

    @pytest.mark.parametrize("method", [PDHG, EGM, ADMM])
    def test_generated_lp_reads_c_x(self, method, tmp_path):
        problem, optimum = generate(RandomLpKnownOptimum(20, 40, 0.3, 1))
        summary = tmp_path / "summary.json"
        code = main(["solve", "--generate", "random:m=20,n=40,density=0.3,seed=1",
                     "--method", method, "--kkt-tol", "1e-9", "--summary-out", str(summary)])
        assert code == EXIT_OPTIMAL
        want = float(problem.c @ optimum.x)
        assert json.loads(summary.read_text())["primal_objective"] == pytest.approx(want,
                                                                                    rel=1e-6)

    def test_bilinear_problem_has_none(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        assert main(["solve", "--generate", "toy", "--summary-out", str(summary)]) \
            == EXIT_OPTIMAL
        assert json.loads(summary.read_text())["primal_objective"] is None
        assert "objective" not in capsys.readouterr().out


def lone_table(problem, method, eta, iterations):
    """The tuner's table from one non-restarted run_restarted call per
    omega, each read as its checkpoint reads it."""
    table = []
    for omega in OMEGA_GRID:
        options = SolveOptions(StepConfig(method, eta, omega=omega),
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
        # the stacked runs are exact because each sqrt(omega) is a power of two
        assert OMEGA_GRID == tuple(4.0 ** k for k in range(-5, 6))
        for omega in OMEGA_GRID:
            mantissa, _ = math.frexp(math.sqrt(omega))
            assert mantissa == 0.5, omega
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

    @pytest.mark.parametrize("method", [PDHG, EGM])
    def test_solve_with_tuned_omega(self, method, tmp_path):
        # b scaled by 100 moves the tuned omega off 1
        problem, _ = generate(RandomLpKnownOptimum(20, 40, 0.3, 1))
        mps = tmp_path / "scaled.mps"
        mps.write_text(standard_form_mps(StandardFormLp(problem.c, problem.A, 100.0 * problem.b)))
        summary = tmp_path / "summary.json"
        code = main(["solve", "--input", str(mps), "--method", method, "--omega", "auto",
                     "--summary-out", str(summary)])
        assert code == EXIT_OPTIMAL
        data = json.loads(summary.read_text())
        parsed, _ = to_standard_form(parse_mps(mps.read_text()))
        sigma = power_method_sigma_max(parsed.A)
        # as solve tunes it: eta from sigma_max
        want, _ = tune_primal_weight(parsed, method, 0.9 / sigma)
        assert want != 1.0
        assert data["omega"] == want and data["status"] == "optimal"

    def test_egm_step_size_is_checked_before_tuning(self, monkeypatch, capsys):
        # L = 1.01 sigma_max bounds EGM's eta before any tuning run
        monkeypatch.setattr(cli, "tune_primal_weight", lambda *a, **k: pytest.fail("tuned"))
        code = main(["solve", "--generate", "random:m=8,n=16,density=0.4,seed=1",
                     "--method", "egm", "--omega", "auto", "--eta", "100"])
        assert code == EXIT_INPUT_ERROR
        assert "EGM requires eta <= 1/L" in capsys.readouterr().err

    def test_solve_with_tuned_omega_rejects_admm(self, capsys):
        code = main(["solve", "--generate", "random:m=8,n=16,density=0.4,seed=1",
                     "--method", "admm", "--omega", "auto"])
        assert code == EXIT_INPUT_ERROR
        assert ADMM_TAKES_NO_OMEGA in capsys.readouterr().err

    @pytest.mark.parametrize("method,problem", [
        (ADMM, ["--generate", "random:m=20,n=40,density=0.3,seed=1"]),
        (PPM_BILINEAR, ["--generate", "diagonal:0.5,1,2", "--start", "1,1,1,1,1,1"])])
    def test_omega_is_rejected_where_no_step_reads_it(self, method, problem, tmp_path, capsys):
        # the run would take as many iterations as at omega = 1, and its
        # summary would report omega = 16
        summary = tmp_path / "summary.json"
        code = main(["solve", *problem, "--method", method, "--omega", "16",
                     "--summary-out", str(summary)])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert f"omega applies to PDHG and EGM only; {method} takes omega = 1" in err
        assert not summary.exists()
        assert main(["solve", *problem, "--method", method, "--omega", "1"]) == EXIT_OPTIMAL

    @pytest.mark.parametrize("option", [["--omega", "4"], ["--kkt-tol", "nan"],
                                        ["--iteration-limit", "1"], ["--check-cadence", "5"],
                                        ["--trace-cadence", "5"]],
                             ids=lambda option: option[0].lstrip("-"))
    def test_solve_options_are_not_options_of_tuning(self, option, capsys):
        code = main(["tune-omega", "--generate", "random:m=8,n=16,density=0.4,seed=1",
                     "--tune-iterations", "50", *option])
        assert code == EXIT_INPUT_ERROR
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err

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
        omega, table = tune_primal_weight(problem, method, 0.9 / sigma, iterations=400)
        assert table == lone_table(problem, method, 0.9 / sigma, 400)
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


PPM_ON_AN_LP = "PPM steps are implemented for unconstrained bilinear problems only"
ADMM_TAKES_NO_OMEGA = "omega applies to PDHG and EGM only; admm takes omega = 1"
ADMM_ON_A_BILINEAR_PROBLEM = ("ADMM steps only an LP (x >= 0), not an unconstrained "
                              "bilinear problem")


class TestOptionsBeforeWork:
    """A bad option of solve, tune-omega or sweep-restarts, or an output that
    cannot be written, is an input error, with the message it always had,
    before sigma_max is estimated, a tuner runs or the solve starts."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        for name in ("power_method_sigma_max", "tune_primal_weight", "_tune_admm_eta",
                     "run_restarted"):
            monkeypatch.setattr(cli, name, lambda *a, name=name, **k: pytest.fail(f"{name} ran"))

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--method", "admm", "--tune-eta", "--omega", "16"],
         ADMM_TAKES_NO_OMEGA),
        (["solve", "--omega", "auto", "--method", "admm", "--tune-eta"],
         ADMM_TAKES_NO_OMEGA),
        (["solve", "--omega", "auto", "--scheme", "fixed"],
         "fixed restarts need a restart length tau >= 1"),
        (["solve", "--omega", "auto", "--kkt-tol", "-1"], "KKT tolerance must be a number >= 0"),
        (["solve", "--method", "egm", "--omega", "auto", "--start", "1,2"],
         "start point needs 60 entries"),
        (["solve", "--method", "egm", "--omega", "auto", "--check-cadence", "0"],
         "check cadence must be >= 1"),
        (["sweep-restarts", "--method", "ppm", "--omega", "16"],
         "omega applies to PDHG and EGM only; ppm takes omega = 1"),
        (["sweep-restarts", "--method", "ppm", "--omega", "auto"],
         "omega applies to PDHG and EGM only; ppm takes omega = 1"),
        (["sweep-restarts", "--omega", "auto", "--kkt-tol", "-1"],
         "KKT tolerance must be a number >= 0"),
        (["sweep-restarts", "--omega", "auto", "--beta", "2"], "beta must lie in (0, 1)"),
        (["solve", "--trace-out", "{missing}/t.csv"], "cannot write"),
        (["solve", "--summary-out", "{missing}/s.json"], "cannot write"),
        (["solve", "--method", "egm", "--omega", "auto", "--summary-out", "{missing}/s.json"],
         "cannot write"),
        (["solve", "--method", "admm", "--tune-eta", "--trace-out", "{missing}/t.csv"],
         "cannot write"),
        (["solve", "--method", "admm", "--summary-out", "{missing}/s.json"], "cannot write"),
        (["tune-omega", "--tune-iterations", "500", "--summary-out", "{missing}/o.json"],
         "cannot write"),
        (["solve", "--method", "ppm"], PPM_ON_AN_LP),
        (["sweep-restarts", "--method", "ppm"], PPM_ON_AN_LP),
        (["solve", "--fixed-length", "5"], "a restart length tau applies to fixed restarts only"),
        (["solve", "--scheme", "none", "--fixed-length", "5"],
         "a restart length tau applies to fixed restarts only"),
        (["solve", "--scheme", "fixed", "--fixed-length", "64", "--beta", "0.9"],
         "beta applies to adaptive and flexible restarts only"),
        (["solve", "--scheme", "none", "--beta", "0.5"],
         "beta applies to adaptive and flexible restarts only"),
        (["solve", "--tune-eta"], "--tune-eta applies to ADMM only"),
        (["solve", "--method", "admm", "--tune-eta", "--eta", "2"],
         "--tune-eta tunes eta, which --eta gives"),
        (["solve", "--trace-cadence", "5"], "unrecognized arguments: --trace-cadence 5"),
        (["sweep-restarts", "--trace-cadence", "5"], "unrecognized arguments: --trace-cadence 5"),
    ], ids=["admm-tune-eta-omega", "auto-admm-tune-eta", "auto-fixed-without-length",
            "auto-kkt-tol", "egm-auto-short-start", "egm-auto-check-cadence", "sweep-ppm-omega",
            "sweep-ppm-auto", "sweep-auto-kkt-tol", "sweep-auto-beta", "trace-out",
            "summary-out", "egm-auto-summary-out", "admm-tune-eta-trace-out",
            "admm-summary-out", "tune-omega-summary-out", "solve-ppm-on-an-lp",
            "sweep-ppm-on-an-lp", "fixed-length-without-fixed", "none-fixed-length",
            "fixed-beta", "none-beta", "tune-eta-pdhg",
            "tune-eta-with-eta", "solve-trace-cadence", "sweep-trace-cadence"])
    def test_is_an_input_error_before_any_work(self, argv, message, tmp_path, capsys):
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        code = main([*argv, "--generate", "random:m=20,n=40,density=0.3,seed=1"])
        assert code == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert message in err and err.count("error:") == 1

    @pytest.mark.parametrize("command", ["solve", "sweep-restarts", "tune-omega"])
    @pytest.mark.parametrize("spec,message", [
        ("random:m=20,n=40,dens=0.9,sed=3", "once each, not 'dens=0.9'"),
        ("toy:anything", "toy takes no parameters")], ids=["random-keys", "toy"])
    def test_generator_parameters_that_are_not_read(self, command, spec, message, capsys):
        assert main([command, "--generate", spec]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert message in err and err.count("error:") == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "admm"],
        ["solve", "--method", "admm", "--tune-eta"],
        ["sweep-restarts", "--method", "admm"],
    ], ids=["solve", "solve-tune-eta", "sweep"])
    def test_admm_on_an_unconstrained_problem(self, argv, capsys):
        # ADMM's split form keeps x >= 0; the toy L(x, y) = x y has x free
        assert main([*argv, "--generate", "toy"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert ADMM_ON_A_BILINEAR_PROBLEM in err and err.count("error:") == 1, err

    def test_tune_omega_rejects_the_method_before_reading_input(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "load_problem", lambda args: pytest.fail("input read"))
        code = main(["tune-omega", "--method", "admm", "--generate",
                     "random:m=20,n=40,density=0.3,seed=1"])
        assert code == EXIT_INPUT_ERROR
        assert ADMM_TAKES_NO_OMEGA in capsys.readouterr().err


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

    def test_summary_out_is_not_an_option(self, tmp_path, capsys):
        summary = tmp_path / "sweep.json"
        code = main(["sweep-restarts", "--generate", "toy", "--eta", "0.2",
                     "--iteration-limit", "300", "--summary-out", str(summary)])
        assert code == EXIT_INPUT_ERROR and not summary.exists()
        assert "unrecognized arguments: --summary-out" in capsys.readouterr().err

    def test_fixed_runs_restart_at_their_own_lengths(self, tmp_path):
        # at the default cadence of 30, fixed_4 and fixed_16 both restarted
        # every 30 iterations and wrote the same trace
        out = tmp_path / "sweep"
        code = main(["sweep-restarts", "--generate", "random:m=10,n=20,density=0.4,seed=2",
                     "--iteration-limit", "600", "--out-dir", str(out)])
        assert code == EXIT_OPTIMAL
        traces = {tau: read_trace(out / f"trace_fixed_{tau}.csv") for tau in (4, 16)}
        # every column but the wall time
        assert [r[:-1] for r in traces[4]] != [r[:-1] for r in traces[16]]
        for tau, rows in traces.items():
            lengths = {int(r[2]) for r in rows[1:] if r[7] == "1"}
            assert lengths == {tau}

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

    @pytest.mark.parametrize("argv,message", [
        (["--kappas", "1.5"], "kappa values must be >= 2"),
        (["--kappas", "inf"], "kappa values must be >= 2 and finite"),
        (["--eps", "0.9"], "eps must lie in (0, 1/2]"),
    ], ids=["kappa", "inf-kappa", "eps"])
    def test_bad_input_makes_no_directory(self, argv, message, tmp_path, capsys):
        out = tmp_path / "lab"
        assert main(["bilinear-lab", *argv, "--out-dir", str(out)]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert message in err and err.count("error:") == 1
        assert not out.exists()


class TestUnwritableOutputs:
    """An output file or directory that cannot be made is an input error:
    one ``error:`` line and exit code 3, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["solve", "--generate", "toy", "--eta", "0.2", "--iteration-limit", "60",
         "--trace-out", "{missing}/t.csv"],
        ["solve", "--generate", "toy", "--eta", "0.2", "--iteration-limit", "60",
         "--summary-out", "{missing}/s.json"],
        ["tune-omega", "--generate", "toy", "--tune-iterations", "10",
         "--summary-out", "{missing}/s.json"],
        ["sweep-restarts", "--generate", "toy", "--eta", "0.2", "--iteration-limit", "30",
         "--out-dir", "{file}/out"],
        ["bilinear-lab", "--kappas", "4", "--out-dir", "{file}/lab"],
    ], ids=["solve-trace", "solve-summary", "tune-omega", "sweep-restarts", "bilinear-lab"])
    def test_is_an_input_error(self, argv, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [a.format(missing=tmp_path / "missing", file=blocker) for a in argv]
        assert main(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: cannot ") and err.count("\n") == 1, err

    def test_bilinear_lab_makes_its_directory_before_table_3(self, tmp_path, monkeypatch):
        def table3(*args, **kwargs):
            raise AssertionError("Table 3 ran")

        monkeypatch.setattr(cli, "table3_scaling_experiment", table3)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["bilinear-lab", "--out-dir", str(blocker / "lab")]) == EXIT_INPUT_ERROR
