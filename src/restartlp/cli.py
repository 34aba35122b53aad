"""Command-line entry points: solve, tune-omega, sweep-restarts, bilinear-lab.

Exit codes: 0 optimal, 2 iteration limit, 3 input error, 4 divergence.
Traces are CSV (one row per checkpoint), summaries JSON with a fixed field
set; the summary's ``eta`` is the caller's step size and ``scaling`` records
the rescaled solve (sigma_max of A and of the scaled matrix, and the eta
used on it), or is null for an unscaled one.  Runs are deterministic given
the seed, except for the wall-time columns.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .bilinear import table3_scaling_experiment, two_dim_toy_series
from .ingest import (
    OBJECTIVE_ROW,
    DiagonalBilinear,
    RandomLpKnownOptimum,
    TwoDimToy,
    generate,
    parse_mps,
    to_standard_form,
)
from .lp_core import SaddlePoint, power_method_sigma_max
from .restarts import (
    ADAPTIVE,
    FIXED,
    FLEXIBLE,
    NO_RESTART,
    DEFAULT_BETA,
    RestartScheme,
    SolveOptions,
    Status,
    _make_lane,
    _run_lane,
    _stacked_lane,
    _unstacked,
    run_restarted,
)
from .steps import ADMM, EGM, PDHG, PPM_BILINEAR, PROJECTION_TOL, StepConfig
# Not called here (the tuners step inside the restart loop); the name stays
# bound because perfbench's span-tracer test reads it from this module.
from .steps import pdhg_step  # noqa: F401

__all__ = [
    "RunConfig",
    "cmd_solve",
    "cmd_tune_primal_weight",
    "cmd_sweep_restart_lengths",
    "cmd_bilinear_lab",
    "tune_primal_weight",
    "rank_fixed_runs",
    "main",
    "entrypoint",
]

EXIT_OPTIMAL = 0
EXIT_ITERATION_LIMIT = 2
EXIT_INPUT_ERROR = 3
EXIT_DIVERGED = 4

OMEGA_GRID = tuple(4.0 ** k for k in range(-5, 6))
TRACE_HEADER = ("iteration", "outer_n", "inner_t", "normalized_gap",
                "kkt_avg", "kkt_last", "radius", "restart_flag",
                "elapsed_seconds")
GAP_SWEEP_THRESHOLD = 1e-7


@dataclass
class RunConfig:
    """Everything one solve needs; exactly one of input_path / generator."""

    input_path: str | None = None
    generator: str | None = None
    method: str = PDHG
    scheme: str = ADAPTIVE
    fixed_length: int | None = None
    beta: float = DEFAULT_BETA
    tau0: int = 1
    eta: float | None = None          # None: 0.9 / sigma_max estimate
    omega: float | str = 1.0          # 'auto': tuned on the omega grid
    tune_eta: bool = False            # ADMM: tune eta on the same grid
    kkt_tol: float = 1e-6
    iteration_limit: int = 1_000_000
    check_cadence: int = 30
    trace_cadence: int = 1
    trace_out: str | None = None
    summary_out: str | None = None
    seed: int = 0
    start: str = "zeros"

    def __post_init__(self):
        if (self.input_path is None) == (self.generator is None):
            raise ValueError("exactly one of input path and generator spec is required")


def parse_generator_spec(text):
    """'toy' | 'diagonal:<s1>,<s2>,...' | 'random:m=..,n=..,density=..,seed=..'"""
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "toy":
        return TwoDimToy()
    if head == "diagonal":
        sigmas = tuple(float(tok) for tok in rest.split(",") if tok.strip())
        return DiagonalBilinear(sigmas)
    if head == "random":
        kv = {}
        for tok in rest.split(","):
            if not tok.strip():
                continue
            key, _, value = tok.partition("=")
            kv[key.strip()] = value.strip()
        try:
            return RandomLpKnownOptimum(
                m=int(kv["m"]), n=int(kv["n"]),
                density=float(kv.get("density", 0.3)),
                seed=int(kv.get("seed", 0)))
        except KeyError as exc:
            raise ValueError(f"random generator needs m= and n= ({exc})") from exc
    raise ValueError(f"unknown generator spec {text!r}")


def load_problem(config):
    """Build the problem from the config; returns (problem, meta dict)."""
    if config.input_path is not None:
        path = Path(config.input_path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ValueError(f"cannot read {path}: {exc}") from exc
        model = parse_mps(text)
        problem, vmap = to_standard_form(model)
        meta = {
            "source": str(path),
            "raw_rows": len(model.row_names),
            "raw_cols": len(model.column_names),
            "raw_nonzeros": int(np.count_nonzero(model.entry_rows != OBJECTIVE_ROW)),
            "rows": problem.m,
            "cols": problem.n,
            "nonzeros": problem.A.nnz,
        }
        return problem, meta
    spec = parse_generator_spec(config.generator)
    problem, _opt = generate(spec)
    meta = {"source": config.generator, "rows": problem.m, "cols": problem.n,
            "nonzeros": problem.A.nnz}
    return problem, meta


def _parse_start(text, problem):
    if text == "zeros":
        return None
    vals = np.array([float(t) for t in text.split(",")])
    if vals.size != problem.n + problem.m:
        raise ValueError(f"start point needs {problem.n + problem.m} entries")
    return SaddlePoint(vals[:problem.n], vals[problem.n:])


def _build_step_config(config, problem):
    """Resolve eta / omega / L, estimating sigma_max where needed."""
    sigma = None
    need_sigma = config.eta is None or config.method == EGM
    if need_sigma and config.method != ADMM:
        sigma = power_method_sigma_max(problem.A, seed=config.seed)
    eta = config.eta
    tuned = {}
    if eta is None:
        if config.method == ADMM:
            eta = 1.0
            if config.tune_eta:
                eta, table = _tune_admm_eta(problem)
                tuned["eta_table"] = table
        else:
            eta = 0.9 / sigma
    omega = config.omega
    if omega == "auto":
        if config.method not in (PDHG, EGM):
            raise ValueError("omega tuning applies to PDHG and EGM only")
        omega, table = tune_primal_weight(problem, config.method, eta,
                                          lipschitz=None if sigma is None else 1.01 * sigma)
        tuned["omega_table"] = table
    omega = float(omega)
    lipschitz = 1.01 * sigma if (config.method == EGM and sigma is not None) else None
    return StepConfig(config.method, eta, omega=omega, lipschitz=lipschitz), tuned


def _build_scheme(config):
    if config.scheme == NO_RESTART:
        return RestartScheme.none()
    if config.scheme == FIXED:
        if config.fixed_length is None:
            raise ValueError("fixed scheme needs --fixed-length")
        return RestartScheme.fixed(config.fixed_length)
    if config.scheme == ADAPTIVE:
        return RestartScheme.adaptive(beta=config.beta, tau0=config.tau0)
    if config.scheme == FLEXIBLE:
        return RestartScheme.flexible(beta=config.beta, tau0=config.tau0)
    raise ValueError(f"unknown scheme {config.scheme!r}")


def write_trace_csv(path, trace):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for rec in trace.records:
            writer.writerow((
                rec.iteration, rec.outer, rec.inner,
                f"{rec.normalized_gap:.17g}",
                f"{rec.kkt_avg:.17g}",
                f"{rec.kkt_last:.17g}",
                f"{rec.radius:.17g}",
                int(rec.restarted),
                f"{rec.elapsed_seconds:.6f}",
            ))


def _summary_dict(result, step, wall):
    return {
        "status": result.status,
        "iterations": result.iterations,
        "final_kkt_error": min(result.kkt_avg, result.kkt_last),
        "restart_count": result.restart_count,
        "restart_lengths": list(result.trace.restart_lengths),
        "wall_time_seconds": wall,
        "eta": step.eta,
        "scaling": None if result.scaling is None else asdict(result.scaling),
        "omega": step.omega,
    }


def cmd_solve(config):
    """Run one restarted solve; returns the process exit status."""
    try:
        problem, meta = load_problem(config)
        step, _tuned = _build_step_config(config, problem)
        scheme = _build_scheme(config)
        if config.method == ADMM and config.start != "zeros":
            raise ValueError("--start applies to PDHG, EGM and PPM; ADMM starts from zeros")
        z0 = _parse_start(config.start, problem)
        options = SolveOptions(step=step, scheme=scheme, kkt_tol=config.kkt_tol,
                               iteration_limit=config.iteration_limit,
                               check_cadence=config.check_cadence,
                               trace_cadence=config.trace_cadence)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    t0 = time.perf_counter()
    result = run_restarted(problem, options, z0=z0)
    wall = time.perf_counter() - t0

    if config.trace_out:
        write_trace_csv(config.trace_out, result.trace)
    summary = _summary_dict(result, step, wall)
    summary["problem"] = meta
    if config.summary_out:
        with open(config.summary_out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"{meta['source']}: {result.status} after {result.iterations} iterations, "
          f"kkt {summary['final_kkt_error']:.3e}, {result.restart_count} restarts")

    if result.status == Status.OPTIMAL:
        return EXIT_OPTIMAL
    if result.status == Status.ITERATION_LIMIT:
        return EXIT_ITERATION_LIMIT
    return EXIT_DIVERGED


# ---------------------------------------------------------------------------
# Primal-weight (and ADMM step-size) tuning
# ---------------------------------------------------------------------------


# Stacked nonzeros (or vector entries, where a problem has more of them)
# above which the primal-weight tuner splits its grid into groups that run
# one after another (see tune_primal_weight).  On a 2-core Intel Xeon at 1
# BLAS thread, PDHG on planted LPs, one stack of the 11 omegas takes 0.62 of
# the time per iteration of 11 lone runs at 66k stacked nonzeros and 0.80 at
# 132k, and breaks even between about 1.3e5 and 2.3e5, by sparsity.
_STACK_NNZ = 2 ** 16


@np.errstate(over="ignore", invalid="ignore")
def _final_kkts(problem, configs, iterations):
    """For each of ``configs``: the KKT error of the caller's problem at
    the last iterate of ``iterations`` steps without restarts, or inf if
    the run diverged, as a lone :func:`run_restarted` reads it.

    One config runs on its lone lane; several, which differ in omega
    alone, as the blocks of their stacked lane, in one run of the restart
    loop.  Block i diverged, as the loop's checkpoint decides for a lone
    run, when its last iterate or average has a non-finite entry; else its
    error is what the lone lane measures at its last iterate.
    """
    lane, _ = _make_lane(problem, configs[0])
    k = len(configs)
    run = lane if k == 1 else _stacked_lane(lane, [cfg.omega for cfg in configs])
    result = _run_lane(run, SolveOptions(run.config, RestartScheme.none(), kkt_tol=0.0,
                                         iteration_limit=iterations, check_cadence=iterations))
    errors = []
    for last, avg in zip(_unstacked(lane, result.last, k), _unstacked(lane, result.average, k)):
        finite = np.all(np.isfinite(last)) and np.all(np.isfinite(avg))
        errors.append(lane.measure(last, 0.0)[1] if finite else math.inf)
    return errors


_ROUNDOFF = 64.0 * np.finfo(np.float64).eps


def _roundoff_floor(problem, rel=_ROUNDOFF):
    """KKT error at or below which two tuning runs count as tied:
    rel * (1 + |b|_2 + |c|_2), by default 64 * eps_mach times that scale.

    Below this level the double-precision error of a final iterate is
    roundoff in the data's own scale, and ranking it picks noise: on
    min x s.t. x = 1 at 60 PDHG iterations, omega = 1/16 reads 0.0 in double
    precision but has the worst true (60-digit) error of the converged runs.
    """
    scale = 1.0 + float(np.linalg.norm(problem.b)) + float(np.linalg.norm(problem.c))
    return rel * scale


def _pick_on_grid(table, floor):
    """Grid value with the smallest error in ``table`` ((value, error) pairs).

    Errors at or below ``floor`` are one tie, and non-finite errors are
    skipped.  Ties break toward the default 1, i.e. the smallest |log v|,
    and between v and 1/v to the smaller one.  Returns 1.0 if no error is
    finite.
    """
    finite = [(v, max(err, floor)) for v, err in table if math.isfinite(err)]
    if not finite:
        return 1.0
    best = min(err for _v, err in finite)
    return min((v for v, err in finite if err == best),
               key=lambda v: (max(v, 1.0 / v), v))


def _check_budget(iterations):
    if iterations < 1:
        raise ValueError(f"the tuning budget must be at least 1 iteration per run, "
                         f"not {iterations}")


def tune_primal_weight(problem, method, eta, iterations=5000, lipschitz=None):
    """Pick omega from {4^-5, ..., 4^5} minimizing the final-iterate KKT
    error of a non-restarted run of ``iterations`` steps.

    Each run is that of :func:`run_restarted` without restarts, so an LP is
    tuned on the rescaled problem that the solve actually iterates (``eta``
    and ``lipschitz`` are in the caller's units, as for a solve), and the
    error is that of the caller's problem.

    The runs of several omegas are one run of the restart loop, on k
    copies of the problem the lone run iterates stacked as the blocks of
    one block-diagonal problem, block i stepping with tau = eta~/omega_i
    and sigma = eta~ omega_i (:func:`_final_kkts`).  That is exact: each
    CSR row of the stack holds its own block's entries, in the lone
    matrix's order, and each step size is folded into the values and into
    tau c and sigma b entry by entry, so every product, sum and elementwise
    operation of a block is the lone run's, bit for bit, and a block that
    overflows leaves the others alone.  One run pays the per-call overhead
    of one run instead of eleven, which is most of a small problem's cost.
    The grid is split into groups of max(1, 2^16 // max(nnz(A), n + m))
    omegas, run one after another, so a stack holds at most 2^16 nonzeros
    (about 2.5 MB with its scaled copy) and 2^16 vector entries, or a
    single copy of the problem: a large LP tunes one omega at a time on the
    lone run's lane.  ``iterations`` < 1 is rejected before any work.

    Errors at or below the roundoff floor 64 * eps_mach * (1 + |b|_2 + |c|_2)
    are ties, and ties break toward the default omega = 1 (smallest
    |log omega|; between omega and 1/omega the smaller wins).  If every run
    diverges omega = 1 is returned.

    Returns (omega, table) where table lists (omega, kkt_error) with the
    measured errors, not clamped to the floor.
    """
    _check_budget(iterations)
    if method not in (PDHG, EGM):
        raise ValueError("primal-weight tuning applies to PDHG and EGM")
    configs = [StepConfig(method, eta, omega=omega, lipschitz=lipschitz)
               for omega in OMEGA_GRID]
    per_group = max(1, _STACK_NNZ // max(problem.A.nnz, problem.n + problem.m, 1))
    errors = []
    for start in range(0, len(configs), per_group):
        errors += _final_kkts(problem, configs[start:start + per_group], iterations)
    table = list(zip(OMEGA_GRID, errors))
    return _pick_on_grid(table, _roundoff_floor(problem)), table


def _tune_admm_eta(problem, iterations=5000):
    """Mirror of the omega protocol for ADMM's step size: eta from the same
    grid, the same runs and tie rule (toward eta = 1).

    The tie floor adds PROJECTION_TOL to the roundoff level: an ADMM KKT
    error is that of the LP dual estimate, which
    :meth:`~restartlp.steps.AffineProjector.solve_normal` verifies only to
    that relative residual, so smaller differences are not resolved (on
    planted 20x40 seed 2 the converged runs read 5.8e-13 at eta = 4 and
    1.7e-12 at eta = 1).  ``iterations`` < 1 is rejected before any work.
    """
    _check_budget(iterations)
    table = [(eta, _final_kkts(problem, [StepConfig(ADMM, eta)], iterations)[0])
             for eta in OMEGA_GRID]
    return _pick_on_grid(table, _roundoff_floor(problem, _ROUNDOFF + PROJECTION_TOL)), table


def cmd_tune_primal_weight(config, iterations=5000):
    """CLI wrapper: tune omega and print the table; returns exit status.

    The choice follows :func:`tune_primal_weight` (roundoff floor, ties
    toward omega = 1); the printed and JSON tables hold the measured errors.
    """
    try:
        _check_budget(iterations)
        problem, meta = load_problem(config)
        if config.method not in (PDHG, EGM):
            raise ValueError("tune-omega supports PDHG and EGM")
        step, _ = _build_step_config(replace(config, omega=1.0), problem)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    omega, table = tune_primal_weight(problem, config.method, step.eta,
                                      iterations=iterations, lipschitz=step.lipschitz)
    for w, err in table:
        print(f"omega {w:12.6g}  kkt {err:.6e}")
    print(f"chosen omega: {omega:.6g}")
    if config.summary_out:
        with open(config.summary_out, "w") as fh:
            json.dump({"omega": omega,
                       "table": [{"omega": w, "kkt_error": e if math.isfinite(e) else None}
                                 for w, e in table]}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OPTIMAL


# ---------------------------------------------------------------------------
# Restart-length sweep
# ---------------------------------------------------------------------------


def rank_fixed_runs(metrics):
    """Order fixed-length runs best-first.

    ``metrics``: (label, iterations_to_gap_threshold or None, final_gap),
    with labels of the form ``fixed_<length>`` as written by
    :func:`cmd_sweep_restart_lengths`.  Runs that push the normalized gap
    below the threshold rank first, by those iterations; runs that never
    get there follow, by the gap at the iteration limit.  The final gap of
    a run that got there is read wherever it stopped, so it does not rank
    those runs.  Ties in either group go to the longer restart length: the
    fixed-restart guarantee needs a length of at least t*, and of two
    equally fast lengths the longer one keeps it under a larger t*.
    """
    def key(row):
        label, iters, final_gap = row
        length = int(label[len("fixed_"):])
        if iters is None:
            return (1, final_gap, -length)
        return (0, iters, -length)

    return sorted(metrics, key=key)


def _gap_metrics(trace):
    iters_to = None
    final_gap = math.inf
    for rec in trace.records:
        if iters_to is None and rec.normalized_gap < GAP_SWEEP_THRESHOLD:
            iters_to = rec.iteration
        final_gap = rec.normalized_gap
    return iters_to, final_gap


def cmd_sweep_restart_lengths(config, out_dir=None):
    """Run Fixed(4^k) for k = 1..9 plus adaptive and no-restart, rank the
    fixed lengths, and write per-run traces and the ranking table.

    ``ranking.csv`` lists the ``fixed_<length>`` runs in the order of
    :func:`rank_fixed_runs` (iterations to a normalized gap below
    GAP_SWEEP_THRESHOLD, then the final gap of runs that never get there,
    ties to the longer length), followed by the adaptive and no-restart
    runs unranked ("-").
    """
    try:
        problem, meta = load_problem(config)
        step, _ = _build_step_config(config, problem)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out = Path(out_dir) if out_dir else None
    if out:
        out.mkdir(parents=True, exist_ok=True)

    runs = [("adaptive", RestartScheme.adaptive(beta=config.beta, tau0=config.tau0)),
            ("no_restart", RestartScheme.none())]
    runs += [(f"fixed_{4 ** k}", RestartScheme.fixed(4 ** k)) for k in range(1, 10)]

    metrics = []
    for label, scheme in runs:
        options = SolveOptions(step=step, scheme=scheme, kkt_tol=config.kkt_tol,
                               iteration_limit=config.iteration_limit,
                               check_cadence=config.check_cadence,
                               trace_cadence=config.trace_cadence)
        try:
            result = run_restarted(problem, options)
        except Exception as exc:  # per-run failures recorded, sweep continues
            print(f"{label}: failed ({exc})", file=sys.stderr)
            metrics.append((label, None, math.inf))
            continue
        if out:
            write_trace_csv(out / f"trace_{label}.csv", result.trace)
        iters_to, final_gap = _gap_metrics(result.trace)
        metrics.append((label, iters_to, final_gap))

    fixed_only = [m for m in metrics if m[0].startswith("fixed_")]
    ranking = rank_fixed_runs(fixed_only)
    rows = [("rank", "run", "iterations_to_gap", "final_gap")]
    for rank, (label, iters_to, final_gap) in enumerate(ranking, start=1):
        rows.append((rank, label, "" if iters_to is None else iters_to,
                     f"{final_gap:.17g}"))
    for label, iters_to, final_gap in metrics:
        if not label.startswith("fixed_"):
            rows.append(("-", label, "" if iters_to is None else iters_to,
                         f"{final_gap:.17g}"))
    for row in rows:
        print(",".join(str(c) for c in row))
    if out:
        with open(out / "ranking.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    return EXIT_OPTIMAL


# ---------------------------------------------------------------------------
# Bilinear lab
# ---------------------------------------------------------------------------


def cmd_bilinear_lab(kappas, eps, out_dir):
    """Emit the condition-number scaling CSV and the 50-iteration toy
    trajectory CSV (plain vs restart length 25 at eta = 0.2)."""
    if not kappas:
        print("error: kappa list must be nonempty", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        report = table3_scaling_experiment(kappas, eps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "scaling.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(report.csv_rows())

    iterations = 50
    plain, restarted = two_dim_toy_series(iterations=iterations, eta=0.2,
                                          restart_length=25)
    with open(out / "figure1.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("series", "iteration", "x", "y"))
        for t in range(1, iterations + 1):
            writer.writerow(("no_restart", t, f"{plain[t, 0]:.17g}", f"{plain[t, 1]:.17g}"))
        for t in range(1, iterations + 1):
            writer.writerow(("fixed_25", t, f"{restarted[t, 0]:.17g}", f"{restarted[t, 1]:.17g}"))

    print(f"last-iterate slope vs kappa:  {report.last_slope:.3f}")
    print(f"restarted slope vs kappa:     {report.restarted_slope:.3f}")
    print(f"average slope vs 1/eps:       {report.average_slope:.3f}")
    d_plain = math.hypot(*plain[-1])
    d_restart = math.hypot(*restarted[-1])
    print(f"toy final distances: no-restart {d_plain:.6f}, restarted {d_restart:.6f}")
    return EXIT_OPTIMAL


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument parser whose errors reach ``main`` as an exception, so that
    ``main`` returns the input-error code instead of exiting."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _add_common(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="path to an MPS file")
    src.add_argument("--generate", help="generator spec: toy | diagonal:s1,s2 | "
                                        "random:m=..,n=..,density=..,seed=..")
    parser.add_argument("--method", choices=[PDHG, EGM, ADMM, PPM_BILINEAR],
                        default=PDHG)
    parser.add_argument("--eta", type=float, default=None,
                        help="step size (default: 0.9 / estimated sigma_max)")
    parser.add_argument("--omega", default="1.0",
                        help="primal weight, or 'auto' to tune")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kkt-tol", type=float, default=1e-6)
    parser.add_argument("--iteration-limit", type=int, default=1_000_000)
    parser.add_argument("--check-cadence", type=int, default=30)
    parser.add_argument("--trace-cadence", type=int, default=1)
    parser.add_argument("--summary-out", default=None)


def _config_from_args(args):
    omega = args.omega if args.omega == "auto" else float(args.omega)
    return RunConfig(
        input_path=args.input,
        generator=args.generate,
        method=args.method,
        scheme=getattr(args, "scheme", ADAPTIVE),
        fixed_length=getattr(args, "fixed_length", None),
        beta=getattr(args, "beta", DEFAULT_BETA),
        tau0=getattr(args, "tau0", 1),
        eta=args.eta,
        omega=omega,
        tune_eta=getattr(args, "tune_eta", False),
        kkt_tol=args.kkt_tol,
        iteration_limit=args.iteration_limit,
        check_cadence=args.check_cadence,
        trace_cadence=args.trace_cadence,
        trace_out=getattr(args, "trace_out", None),
        summary_out=args.summary_out,
        seed=args.seed,
        start=getattr(args, "start", "zeros"),
    )


def main(argv=None):
    parser = _Parser(prog="restartlp",
                     description="Restarted matrix-free primal-dual LP solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_common(p_solve)
    p_solve.add_argument("--scheme", choices=[NO_RESTART, FIXED, ADAPTIVE, FLEXIBLE],
                         default=ADAPTIVE)
    p_solve.add_argument("--fixed-length", type=int, default=None)
    p_solve.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p_solve.add_argument("--tau0", type=int, default=1)
    p_solve.add_argument("--tune-eta", action="store_true",
                         help="ADMM: tune eta over the 4^k grid first")
    p_solve.add_argument("--trace-out", default=None)
    p_solve.add_argument("--start", default="zeros",
                         help="'zeros' or comma-separated coordinates")

    p_tune = sub.add_parser("tune-omega", help="grid-search the primal weight")
    _add_common(p_tune)
    p_tune.add_argument("--tune-iterations", type=int, default=5000)

    p_sweep = sub.add_parser("sweep-restarts",
                             help="compare fixed restart lengths 4^1..4^9")
    _add_common(p_sweep)
    p_sweep.add_argument("--beta", type=float, default=DEFAULT_BETA)
    p_sweep.add_argument("--tau0", type=int, default=1)
    p_sweep.add_argument("--out-dir", default=None)

    p_lab = sub.add_parser("bilinear-lab",
                           help="condition-number scaling and toy trajectories")
    p_lab.add_argument("--kappas", default="4,8,16,32",
                       help="comma-separated condition numbers")
    p_lab.add_argument("--eps", type=float, default=1e-6)
    p_lab.add_argument("--out-dir", required=True)

    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return cmd_solve(_config_from_args(args))
        if args.command == "tune-omega":
            return cmd_tune_primal_weight(_config_from_args(args),
                                          iterations=args.tune_iterations)
        if args.command == "sweep-restarts":
            return cmd_sweep_restart_lengths(_config_from_args(args),
                                             out_dir=args.out_dir)
        if args.command == "bilinear-lab":
            kappas = [float(k) for k in args.kappas.split(",") if k.strip()]
            return cmd_bilinear_lab(kappas, args.eps, args.out_dir)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    print(f"error: unknown command {args.command!r}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
