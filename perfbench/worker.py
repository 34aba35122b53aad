"""Run one workload's set-up and solves and print what the program returned.

``run.py`` starts this script in a process of its own, writes the workload's
input (the MPS text for ``lp-large``, nothing otherwise) to its standard
input, and checks the results it prints as one JSON line.  The process runs
only the program, so its peak resident memory is the program's.

Untraced (``--trace 0``): set-up is repeated at least three times and for at
least a second, then the solves are repeated, pass after pass, at least
three times and until ``--seconds`` of solving have been measured.  Traced
(``--trace 1``): one traced set-up, one untraced pass of the solves, then
one traced pass; the two passes give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from restartlp import SaddlePoint, SolveOptions, StepConfig  # noqa: E402
from restartlp import bilinear, cli, ingest, lp_core, restarts  # noqa: E402
from restartlp.steps import ADMM, EGM, PDHG  # noqa: E402
from perfbench import instances, tracer, workloads  # noqa: E402

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
# Other tenants of a shared machine slow it in bursts of about a second;
# the median of each solve over three or more passes discards a burst that
# hits one pass.
MIN_PASSES = 3
CHECK_CADENCE = 30


def set_up(plan, seed, mps_text):
    """Build every instance and its step-size estimate, and tune the
    primal weight where the plan asks.  Returns ``(ready, seconds)`` with
    ``ready[key] = (problem, sigma_max, variable map)``; the seconds count
    only calls into the program."""
    spent = 0.0

    def timed(fn, *args):
        nonlocal spent
        t0 = time.perf_counter()
        out = fn(*args)
        spent += time.perf_counter() - t0
        return out

    ready = {}
    for inst in plan.instances:
        vmap = None
        if inst.kind == "mps":
            problem, vmap = timed(lambda: ingest.to_standard_form(ingest.parse_mps(mps_text)))
        else:
            problem, _ = timed(ingest.generate, inst.spec)
            problem = instances.permute_problem(problem, seed)
        sigma = timed(lp_core.power_method_sigma_max, problem.A) if inst.needs_sigma else None
        ready[inst.key] = (problem, sigma, vmap)
    if plan.tune:
        problem, sigma, _ = ready[plan.tune]
        timed(cli.tune_primal_weight, problem, PDHG, 0.9 / sigma)
    return ready, spent


def solve(s, ready):
    """Run one solve; returns what the program reported."""
    if s.key == "table3":
        t0 = time.perf_counter()
        rep = bilinear.table3_scaling_experiment(list(workloads.TABLE3_KAPPAS), workloads.TABLE3_EPS)
        seconds = time.perf_counter() - t0
        found = [i for _, _, i in rep.rows] + [max((i or 0) for _, i in rep.average_rows)]
        return {"rows": rep.rows, "average_rows": rep.average_rows,
                "iterations": sum(i or 0 for i in found), "seconds": seconds}
    problem, sigma, vmap = ready[s.key]
    eta = 1.0 if s.method == ADMM else 0.9 / sigma
    lipschitz = 1.01 * sigma if s.method == EGM else None
    options = SolveOptions(StepConfig(s.method, eta, lipschitz=lipschitz), s.scheme,
                           kkt_tol=s.tol, iteration_limit=s.limit, check_cadence=CHECK_CADENCE)
    z0 = None if problem.nonneg else SaddlePoint(np.ones(problem.n), np.ones(problem.m))
    t0 = time.perf_counter()
    res = restarts.run_restarted(problem, options, z0)
    seconds = time.perf_counter() - t0
    sol = res.solution
    if s.method == ADMM:
        value = float(problem.c @ sol.x_v)
    elif vmap is not None:
        value = vmap.original_objective(problem, sol.x)
    elif problem.nonneg:
        value = float(problem.c @ sol.x)
    else:
        value = math.hypot(float(np.linalg.norm(sol.x)), float(np.linalg.norm(sol.y)))
    return {"status": res.status, "kkt": min(res.kkt_avg, res.kkt_last), "value": value,
            "iterations": res.iterations, "seconds": seconds}


def solve_pass(plan, ready):
    """All solves of the plan once.  A solve that raises is recorded as
    such and the pass goes on."""
    records = []
    for s in plan.solves:
        try:
            records.append(solve(s, ready))
        except Exception as exc:  # one failing solve must not end the workload
            traceback.print_exc(file=sys.stderr)
            records.append({"error": f"{type(exc).__name__}: {exc}", "iterations": 0, "seconds": 0.0})
    return records


def pass_seconds(records):
    return sum(r["seconds"] for r in records)


def sizing(ready):
    """Matrix sizes and computed bytes per SpMV."""
    return [{"instance": key, "rows": p.A.n_rows, "cols": p.A.n_cols, "nnz": p.A.nnz,
             "spmv_bytes_computed": tracer.spmv_bytes(p.A)}
            for key, (p, _, _) in ready.items()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    plan = workloads.plan(args.workload)
    mps_text = sys.stdin.read()
    out = {}
    if args.trace:
        spans = tracer.Tracer()
        with spans:
            ready, _ = set_up(plan, args.seed, mps_text)
        untraced = solve_pass(plan, ready)
        with spans:
            traced = solve_pass(plan, ready)
        out["passes"] = [untraced, traced]
        out["table"], out["layers"] = tracer.summarize(
            spans.spans, pass_seconds(untraced), pass_seconds(traced))
    else:
        setups = []
        ready = None
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
            ready = None            # free the previous set-up before the next
            ready, seconds = set_up(plan, args.seed, mps_text)
            setups.append(seconds)
        passes = []
        while len(passes) < MIN_PASSES or sum(map(pass_seconds, passes)) < args.seconds:
            passes.append(solve_pass(plan, ready))
        out["setup_s"] = setups
        out["passes"] = passes
    out["sizing"] = sizing(ready)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
