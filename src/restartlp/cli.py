"""Command-line entry points: solve, tune-omega, sweep-restarts, bilinear-lab.

Exit codes: 0 optimal, 2 iteration limit, 3 input error, 4 divergence.
Traces are CSV (one row per checkpoint), summaries JSON with a fixed field
set; the summary's ``eta`` is the caller's step size and ``scaling`` records
the rescaled solve (sigma_max of A and of the scaled matrix, and the eta
used on it), or is null for an unscaled one.  ``primal_objective`` is the
objective at the returned point (for ADMM at its x_V) in the terms of the
problem given: with an MPS model's sense and objective constant applied,
c'x for a generated LP, and null for an unconstrained bilinear problem.
Runs are deterministic, except for the wall-time columns.

Each ``cmd_*`` reads the parsed ``argparse.Namespace`` directly, and
:func:`main` maps every input error (a bad option, file, instance or
parameter: a ``ValueError``) to exit code 3 with one ``error: ...`` line on
stderr.  So is a method whose steps do not apply to the problem (PPM on an
LP, ADMM on an unconstrained bilinear problem), rejected before any work,
and an instance whose Ax = b the ADMM projection cannot meet, such as an
MPS model with an empty E row and a nonzero right-hand side (an
:class:`~restartlp.steps.AffineProjectionError`).  An output file or
directory that cannot be made is such an error, raised where it is opened:
after the options are checked and before any estimate, tuning run or
solve.  An error raised by that work leaves the opened outputs empty.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .bilinear import table3_arguments, table3_scaling_experiment, two_dim_toy_series
from .ingest import (
    OBJECTIVE_ROW,
    DiagonalBilinear,
    RandomLpKnownOptimum,
    generate,
    parse_mps,
    to_standard_form,
)
from .lp_core import SaddlePoint, StandardFormLp, _dot, _norm, power_method_sigma_max
from .restarts import (
    ADAPTIVE,
    FIXED,
    FLEXIBLE,
    NO_RESTART,
    DEFAULT_BETA,
    RestartScheme,
    SolveOptions,
    Status,
    _block_indices,
    _make_lane,
    _run_lane,
    _SaddleLane,
    _stack,
    run_restarted,
)
from .steps import (ADMM, EGM, PDHG, PPM_BILINEAR, PROJECTION_TOL, AdmmPoint, StepConfig,
                    _check_fits)
# Not called here (the tuners step inside the restart loop); the name stays
# bound because perfbench's span-tracer test reads it from this module.
from .steps import pdhg_step  # noqa: F401

__all__ = [
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


def parse_generator_spec(text):
    """'toy' | 'diagonal:<s1>,<s2>,...' | 'random:m=..,n=..,density=..,seed=..'

    A parameter that is not read is an error: anything after 'toy', and a
    random key other than m, n, density and seed, or one given twice."""
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    if head == "toy":
        if rest.strip():
            raise ValueError(f"toy takes no parameters, got {text!r}")
        # the two-dimensional bilinear toy L(x, y) = x y
        return DiagonalBilinear((1.0,))
    if head == "diagonal":
        sigmas = tuple(float(tok) for tok in rest.split(",") if tok.strip())
        return DiagonalBilinear(sigmas)
    if head == "random":
        kv = {}
        for tok in rest.split(","):
            if not tok.strip():
                continue
            key, _, value = tok.partition("=")
            key = key.strip()
            if key not in ("m", "n", "density", "seed") or key in kv:
                raise ValueError(f"random generator takes m=, n=, density= and seed= "
                                 f"once each, not {tok.strip()!r}")
            kv[key] = value.strip()
        try:
            return RandomLpKnownOptimum(
                m=int(kv["m"]), n=int(kv["n"]),
                density=float(kv.get("density", 0.3)),
                seed=int(kv.get("seed", 0)))
        except KeyError as exc:
            raise ValueError(f"random generator needs m= and n= ({exc})") from exc
    raise ValueError(f"unknown generator spec {text!r}")


def load_problem(args):
    """Build the problem from ``--input`` or ``--generate``; returns
    (problem, meta dict, variable map), the map
    (:class:`~restartlp.ingest.VariableMap`) None for a generated problem."""
    if args.input is not None:
        path = Path(args.input)
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
        return problem, meta, vmap
    spec = parse_generator_spec(args.generate)
    problem, _opt = generate(spec)
    meta = {"source": args.generate, "rows": problem.m, "cols": problem.n,
            "nonzeros": problem.A.nnz}
    return problem, meta, None


def _primal_objective(problem, vmap, solution):
    """The objective at ``solution`` (at its x_V for ADMM) as the module
    docstring gives it, from ``load_problem``'s problem and map."""
    if not problem.nonneg:
        return None
    x = solution.x_v if isinstance(solution, AdmmPoint) else solution.x
    return _dot(problem.c, x) if vmap is None else vmap.original_objective(problem, x)


def _parse_start(text, problem):
    if text == "zeros":
        return None
    vals = np.array([float(t) for t in text.split(",")])
    if vals.size != problem.n + problem.m:
        raise ValueError(f"start point needs {problem.n + problem.m} entries")
    return SaddlePoint.over(vals, problem.n)


def _given_step(args, problem):
    """The step config of the options as given; building it checks omega
    against the method, a given eta, and then the method against
    ``problem``, before any estimate or tuning run.  An unset eta and omega
    'auto' read 1 in it until :func:`_build_step_config` resolves them."""
    if args.omega == "auto":
        if args.method not in (PDHG, EGM):
            raise ValueError("omega tuning applies to PDHG and EGM only")
        omega = 1.0
    else:
        omega = float(args.omega)
    given = StepConfig(args.method, 1.0 if args.eta is None else args.eta, omega=omega)
    _check_fits(problem, args.method)
    return given


def _build_step_config(problem, method, eta, omega, tune_eta):
    """Resolve eta and omega, estimating sigma_max where needed.

    ``eta`` None is 0.9 / sigma_max, or for ADMM 1 (tuned on the omega grid
    if ``tune_eta``); ``omega`` 'auto' is tuned on that grid, for PDHG and
    EGM, which :func:`_given_step` checks first.  EGM's eta is checked
    against L = 1.01 sigma_max before omega is tuned.
    """
    sigma = None
    if (eta is None or method == EGM) and method != ADMM:
        sigma = power_method_sigma_max(problem.A)
    if eta is None:
        if method != ADMM:
            eta = 0.9 / sigma
        elif tune_eta:
            eta, _ = _tune_admm_eta(problem)
        else:
            eta = 1.0
    step = StepConfig(method, eta, lipschitz=1.01 * sigma if method == EGM else None)
    if omega == "auto":
        omega, _ = tune_primal_weight(problem, method, eta)
    return replace(step, omega=float(omega))


def _build_scheme(args):
    """The restart scheme of ``solve``'s options, each of which the scheme reads."""
    if args.fixed_length is not None and args.scheme != FIXED:
        raise ValueError("--fixed-length applies to --scheme fixed only")
    if args.scheme == FIXED and args.fixed_length is None:
        raise ValueError("fixed scheme needs --fixed-length")
    if args.beta is not None and args.scheme not in (ADAPTIVE, FLEXIBLE):
        raise ValueError("--beta applies to --scheme adaptive and flexible only")
    return RestartScheme(args.scheme, tau=args.fixed_length,
                         beta=DEFAULT_BETA if args.beta is None else args.beta)


def _open_output(path):
    """``path`` opened for writing, or for None a context of None; a path
    that cannot be opened is an input error."""
    if path is None:
        return nullcontext()
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _output_dir(path):
    """The directory ``path``, made if missing; one that cannot be is an input error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot make directory {path}: {exc.strerror}") from None
    return Path(path)


def write_trace_csv(fh, trace):
    """The trace as CSV rows into the open text file ``fh``."""
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


def _write_json(fh, data):
    json.dump(data, fh, indent=2, sort_keys=True)
    fh.write("\n")


def _summary_dict(result, step, wall):
    return {
        "status": result.status,
        "iterations": result.iterations,
        "final_kkt_error": min(result.kkt_avg, result.kkt_last),
        "restart_count": result.restart_count,
        "restart_lengths": [rec.inner for rec in result.trace.records if rec.restarted],
        "wall_time_seconds": wall,
        "eta": step.eta,
        "scaling": None if result.scaling is None else asdict(result.scaling),
        "omega": step.omega,
    }


def _solve_options(args, step, scheme):
    return SolveOptions(step=step, scheme=scheme, kkt_tol=args.kkt_tol,
                        iteration_limit=args.iteration_limit,
                        check_cadence=args.check_cadence)


def cmd_solve(args):
    """Run one restarted solve; returns the process exit status."""
    problem, meta, vmap = load_problem(args)
    # every option is checked, and every output opened, before sigma_max is
    # estimated or a tuner runs
    options = _solve_options(args, _given_step(args, problem), _build_scheme(args))
    if args.method == ADMM and args.start != "zeros":
        raise ValueError("--start applies to PDHG, EGM and PPM; ADMM starts from zeros")
    if args.tune_eta and args.method != ADMM:
        raise ValueError("--tune-eta applies to ADMM only")
    if args.tune_eta and args.eta is not None:
        raise ValueError("--tune-eta tunes eta, which --eta gives")
    z0 = _parse_start(args.start, problem)
    with _open_output(args.trace_out) as trace_fh, _open_output(args.summary_out) as summary_fh:
        step = _build_step_config(problem, args.method, args.eta, args.omega, args.tune_eta)
        t0 = time.perf_counter()
        result = run_restarted(problem, replace(options, step=step), z0=z0)
        wall = time.perf_counter() - t0

        objective = _primal_objective(problem, vmap, result.solution)
        summary = _summary_dict(result, step, wall)
        summary["problem"] = meta
        summary["primal_objective"] = objective
        if trace_fh:
            write_trace_csv(trace_fh, result.trace)
        if summary_fh:
            _write_json(summary_fh, summary)
    print(f"{meta['source']}: {result.status} after {result.iterations} iterations, "
          f"kkt {summary['final_kkt_error']:.3e}, {result.restart_count} restarts"
          + ("" if objective is None else f", primal objective {objective:.12g}"))

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


def _omega_copies(lane, omegas):
    """The PDHG or EGM ``lane`` at each of ``omegas`` (powers of 4) as one
    lane at omega = 1 on the stack of copies (c/s, A, b s), s = sqrt(omega),
    of its problem; and per block, its indices and the factors [1/s; s]
    that read it as the lone run's [x; y] (see :func:`tune_primal_weight`)."""
    problem = lane.problem
    scales = [math.sqrt(omega) for omega in omegas]
    copies = [StandardFormLp(problem.c / s, problem.A, problem.b * s, problem.nonneg)
              for s in scales]
    blocks = [(index, np.r_[np.full(problem.n, 1.0 / s), np.full(problem.m, s)])
              for index, s in zip(_block_indices(copies), scales)]
    return _SaddleLane(_stack(copies), replace(lane.config, omega=1.0)), blocks


@np.errstate(over="ignore", invalid="ignore")
def _final_kkts(problem, configs, iterations):
    """For each of ``configs``: the KKT error of the caller's problem at
    the last iterate of ``iterations`` steps without restarts, or inf if
    the run diverged, as a lone :func:`run_restarted` reads it.

    One config runs on its lone lane; several, which differ in omega
    alone, as the blocks of their copies at omega = 1
    (:func:`_omega_copies`), in one run of the restart loop.  Block i
    diverged, as the loop's checkpoint decides for a lone run, when its
    last iterate or average has a non-finite entry; else its error is what
    the lone lane measures at its last iterate.
    """
    lane, _ = _make_lane(problem, configs[0])
    if len(configs) == 1:
        run, blocks = lane, [(slice(None), 1.0)]
    else:
        run, blocks = _omega_copies(lane, [cfg.omega for cfg in configs])
    result = _run_lane(run, SolveOptions(run.config, RestartScheme.none(), kkt_tol=0.0,
                                         iteration_limit=iterations, check_cadence=iterations))
    errors = []
    for index, unscale in blocks:
        last, avg = result.last[index] * unscale, result.average[index] * unscale
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
    scale = 1.0 + _norm(problem.b) + _norm(problem.c)
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


def tune_primal_weight(problem, method, eta, iterations=5000):
    """Pick omega from {4^-5, ..., 4^5} minimizing the final-iterate KKT
    error of a non-restarted run of ``iterations`` steps.

    Each run is that of :func:`run_restarted` without restarts, so an LP is
    tuned on the rescaled problem that the solve actually iterates (``eta``
    is in the caller's units, as for a solve), and the error is that of the
    caller's problem.

    The runs of several omegas are one run of the restart loop at
    omega = 1 on the stack of copies (c~/s, A~, b~ s), s = sqrt(omega), of
    the problem the lone run iterates (:func:`_omega_copies`): the run at
    omega on (c~, A~, b~) is x = x'/s, y = s y' for the run (x', y') at
    omega = 1 on its copy.  That is exact: every grid value is a power of
    4, so s is a power of two, and each product, sum, shift and max(., 0)
    of a block is the lone run's value times a power of two, so the block
    read back is the lone run bit for bit, short of an overflow or
    underflow at a factor of at most 32.  Each CSR row of the stack holds
    its own block's entries, so a block that overflows leaves the others
    alone.  One run pays the per-call overhead of one run instead of
    eleven, which is most of a small problem's cost.
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
    configs = [StepConfig(method, eta, omega=omega) for omega in OMEGA_GRID]
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


def cmd_tune_primal_weight(args):
    """CLI wrapper: tune omega and print the table; returns exit status.

    The choice follows :func:`tune_primal_weight` (roundoff floor, ties
    toward omega = 1); the printed and JSON tables hold the measured errors.
    """
    _check_budget(args.tune_iterations)
    if args.method not in (PDHG, EGM):
        raise ValueError("tune-omega supports PDHG and EGM")
    problem, _, _ = load_problem(args)
    with _open_output(args.summary_out) as summary_fh:
        step = _build_step_config(problem, args.method, args.eta, 1.0, False)
        omega, table = tune_primal_weight(problem, args.method, step.eta,
                                          iterations=args.tune_iterations)
        for w, err in table:
            print(f"omega {w:12.6g}  kkt {err:.6e}")
        print(f"chosen omega: {omega:.6g}")
        rows = [{"omega": w, "kkt_error": e if math.isfinite(e) else None} for w, e in table]
        if summary_fh:
            _write_json(summary_fh, {"omega": omega, "table": rows})
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


def cmd_sweep_restart_lengths(args):
    """Run Fixed(4^k) for k = 1..9 plus adaptive and no-restart, rank the
    fixed lengths, and write per-run traces and the ranking table.

    ``ranking.csv`` lists the ``fixed_<length>`` runs in the order of
    :func:`rank_fixed_runs` (iterations to a normalized gap below
    GAP_SWEEP_THRESHOLD, then the final gap of runs that never get there,
    ties to the longer length), followed by the adaptive and no-restart
    runs unranked ("-").
    """
    problem, _, _ = load_problem(args)
    # every option is checked before sigma_max is estimated or omega tuned
    given = _given_step(args, problem)
    schemes = [("adaptive", RestartScheme.adaptive(
                    beta=DEFAULT_BETA if args.beta is None else args.beta)),
               ("no_restart", RestartScheme.none())]
    schemes += [(f"fixed_{4 ** k}", RestartScheme.fixed(4 ** k)) for k in range(1, 10)]
    runs = [(label, _solve_options(args, given, scheme)) for label, scheme in schemes]
    out = _output_dir(args.out_dir) if args.out_dir else None
    step = _build_step_config(problem, args.method, args.eta, args.omega, False)

    metrics = []
    for label, options in runs:
        try:
            result = run_restarted(problem, replace(options, step=step))
        except Exception as exc:  # per-run failures recorded, sweep continues
            print(f"{label}: failed ({exc})", file=sys.stderr)
            metrics.append((label, None, math.inf))
            continue
        if out:
            with _open_output(out / f"trace_{label}.csv") as fh:
                write_trace_csv(fh, result.trace)
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
        with _open_output(out / "ranking.csv") as fh:
            csv.writer(fh).writerows(rows)
    return EXIT_OPTIMAL


# ---------------------------------------------------------------------------
# Bilinear lab
# ---------------------------------------------------------------------------


def cmd_bilinear_lab(args):
    """Emit the condition-number scaling CSV and the 50-iteration toy
    trajectory CSV (plain vs restart length 25 at eta = 0.2)."""
    kappas = table3_arguments([k for k in args.kappas.split(",") if k.strip()], args.eps)
    out = _output_dir(args.out_dir)
    report = table3_scaling_experiment(kappas, args.eps)
    with _open_output(out / "scaling.csv") as fh:
        csv.writer(fh).writerows(report.csv_rows())

    plain, restarted = two_dim_toy_series()
    with _open_output(out / "figure1.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(("series", "iteration", "x", "y"))
        for label, path in (("no_restart", plain), ("fixed_25", restarted)):
            for t in range(1, len(path)):
                writer.writerow((label, t, f"{path[t, 0]:.17g}", f"{path[t, 1]:.17g}"))

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


def _add_run_options(parser):
    """The options of the restarted solves that solve and sweep-restarts run."""
    parser.add_argument("--omega", default="1.0",
                        help="primal weight of PDHG and EGM (ADMM and PPM take 1), "
                             "or 'auto' to tune")
    parser.add_argument("--kkt-tol", type=float, default=1e-6)
    parser.add_argument("--iteration-limit", type=int, default=1_000_000)
    parser.add_argument("--check-cadence", type=int, default=30)
    parser.add_argument("--beta", type=float, default=None,
                        help="adaptive and flexible gap decay (default: exp(-1))")


def main(argv=None):
    parser = _Parser(prog="restartlp",
                     description="Restarted matrix-free primal-dual LP solvers")
    # each subparser's set_defaults replaces the name stored in ``command``
    # with the function that runs it
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.set_defaults(command=cmd_solve)
    _add_common(p_solve)
    _add_run_options(p_solve)
    p_solve.add_argument("--scheme", choices=[NO_RESTART, FIXED, ADAPTIVE, FLEXIBLE],
                         default=ADAPTIVE)
    p_solve.add_argument("--fixed-length", type=int, default=None)
    p_solve.add_argument("--tune-eta", action="store_true",
                         help="ADMM: tune eta over the 4^k grid first")
    p_solve.add_argument("--trace-out", default=None)
    p_solve.add_argument("--summary-out", default=None)
    p_solve.add_argument("--start", default="zeros",
                         help="'zeros' or comma-separated coordinates")

    p_tune = sub.add_parser("tune-omega", help="grid-search the primal weight")
    p_tune.set_defaults(command=cmd_tune_primal_weight)
    _add_common(p_tune)
    p_tune.add_argument("--tune-iterations", type=int, default=5000)
    p_tune.add_argument("--summary-out", default=None)

    p_sweep = sub.add_parser("sweep-restarts",
                             help="compare fixed restart lengths 4^1..4^9")
    p_sweep.set_defaults(command=cmd_sweep_restart_lengths)
    _add_common(p_sweep)
    _add_run_options(p_sweep)
    p_sweep.add_argument("--out-dir", default=None)

    p_lab = sub.add_parser("bilinear-lab",
                           help="condition-number scaling and toy trajectories")
    p_lab.set_defaults(command=cmd_bilinear_lab)
    p_lab.add_argument("--kappas", default="4,8,16,32",
                       help="comma-separated condition numbers")
    p_lab.add_argument("--eps", type=float, default=1e-6)
    p_lab.add_argument("--out-dir", required=True)

    try:
        args = parser.parse_args(argv)
        return args.command(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
