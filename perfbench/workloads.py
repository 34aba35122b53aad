"""The three workloads: their fixed instances, the solves they run, and the
checks every result must pass.

* ``lp-large`` -- one 400k-nonzero planted LP written as MPS text: the only
  workload where MPS ingest and SpMV throughput dominate.
* ``lp-small`` -- the paper's method x restart-scheme grid on small planted
  LPs, restarted PDHG and PPM on diagonal bilinear problems, the Table 3
  condition-number experiment and primal-weight tuning: per-call Python
  overhead dominates.
* ``admm`` -- ADMM with adaptive and flexible restarts on planted LPs: the
  only workload that runs the affine projection and the ADMM semi-norm gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from restartlp import DiagonalBilinear, RandomLpKnownOptimum, RestartScheme, generate
from restartlp.steps import ADMM, EGM, PDHG, PPM_BILINEAR

from perfbench.instances import write_planted_mps

NAMES = ("lp-large", "lp-small", "admm")

LP_LARGE = RandomLpKnownOptimum(20000, 40000, 5e-4, seed=0)
LP_LARGE_STRUCTURE_SEED = 7
SMALL_SIZES = ((10, 20, 0.4), (50, 100, 0.2), (200, 400, 0.05))
SMALL_INSTANCE_SEEDS = (0, 1, 2)
TUNED_INSTANCE = "planted-50x100-0"
GRID_SCHEMES = (RestartScheme.none(), RestartScheme.fixed(64),
                RestartScheme.adaptive(), RestartScheme.flexible())
BILINEAR_KAPPAS = (16, 64)
BILINEAR_SIZE = 50
ADMM_INSTANCE_SEEDS = tuple(range(8))

TABLE3_KAPPAS = (4, 8, 16, 32)
TABLE3_EPS = 1e-6
# Iterations to threshold of the Table 3 experiment, recorded at the commit
# that defined the benchmark: (last iterate, fixed-frequency restarts) per
# kappa, then the average iterate at eps 1e-2, 1e-3 and 1e-4.
TABLE3_ROWS = {4: (831, 218), 8: (3332, 439), 16: (13396, 880), 32: (53714, 1095)}
TABLE3_AVERAGE = (495, 5000, 50001)

# Objective error allowed against the planted optimum, in multiples of the
# solve's KKT tolerance times 1 + |optimum|.  The largest error seen when the
# benchmark was defined was 0.51 of that unit (lp-small), 0.04 (admm) and
# 0.0004 (lp-large).
OBJECTIVE_TOL_FACTOR = 10.0
# Iteration caps, about ten times the most any solve needed when the
# benchmark was defined, so that a regression shows as a failed solve and
# not as a run that overruns its time limit.
LARGE_ITERATION_LIMIT = 30_000
SMALL_ITERATION_LIMIT = 100_000
ADMM_ITERATION_LIMIT = 10_000


@dataclass(frozen=True)
class Instance:
    key: str
    kind: str                  # "mps", "planted" or "diagonal"
    spec: object               # generator spec
    needs_sigma: bool = True


@dataclass(frozen=True)
class Solve:
    key: str                   # "table3", or the instance to solve
    method: str = PDHG
    scheme: RestartScheme = RestartScheme.adaptive()
    tol: float = 1e-6
    limit: int = SMALL_ITERATION_LIMIT

    @property
    def label(self):
        if self.key == "table3":
            return "table3"
        tau = f"({self.scheme.tau})" if self.scheme.tau else ""
        return f"{self.key}/{self.method}/{self.scheme.kind}{tau}"


@dataclass(frozen=True)
class Plan:
    instances: tuple
    solves: tuple
    tune: str | None = None    # instance whose primal weight set-up tunes


def plan(name):
    """Instances and solves of workload ``name``."""
    if name == "lp-large":
        return Plan((Instance("mps", "mps", LP_LARGE),),
                    (Solve("mps", tol=1e-4, limit=LARGE_ITERATION_LIMIT),))
    if name == "lp-small":
        planted = tuple(
            Instance(f"planted-{m}x{n}-{s}", "planted", RandomLpKnownOptimum(m, n, d, s))
            for m, n, d in SMALL_SIZES for s in SMALL_INSTANCE_SEEDS)
        diagonal = tuple(
            Instance(f"diagonal-{k}", "diagonal", diagonal_spec(k)) for k in BILINEAR_KAPPAS)
        grid = tuple(Solve(inst.key, method, scheme)
                     for inst in planted for method in (PDHG, EGM) for scheme in GRID_SCHEMES)
        bilinear = tuple(Solve(inst.key, method)
                         for inst in diagonal for method in (PPM_BILINEAR, PDHG))
        return Plan(planted + diagonal, grid + bilinear + (Solve("table3"),),
                    tune=TUNED_INSTANCE)
    if name == "admm":
        planted = tuple(
            Instance(f"planted-200x400-{s}", "planted", RandomLpKnownOptimum(200, 400, 0.05, s),
                     needs_sigma=False)
            for s in ADMM_INSTANCE_SEEDS)
        solves = tuple(Solve(inst.key, ADMM, scheme, limit=ADMM_ITERATION_LIMIT)
                       for inst in planted
                       for scheme in (RestartScheme.adaptive(), RestartScheme.flexible()))
        return Plan(planted, solves)
    raise ValueError(f"unknown workload {name!r}")


def diagonal_spec(kappa):
    """Spectrum linspace(1/kappa, 1, BILINEAR_SIZE)."""
    k = BILINEAR_SIZE
    return DiagonalBilinear(tuple(1.0 / kappa + (1.0 - 1.0 / kappa) * i / (k - 1)
                                  for i in range(k)))


def make_input(name, seed):
    """Plan, checker references and input text of workload ``name``.

    The references are the planted optimal objectives c'x*, which the
    seeded relabelling leaves unchanged, and for ``lp-large`` the planted
    optimum of the MPS model; the input text is that model for ``lp-large``
    and empty otherwise."""
    p = plan(name)
    refs = {}
    for inst in p.instances:
        if inst.kind == "planted":
            problem, optimum = generate(inst.spec)
            refs[inst.key] = float(problem.c @ optimum.x)
    text = ""
    if name == "lp-large":
        problem, optimum = generate(LP_LARGE)
        text, refs["mps"] = write_planted_mps(problem, optimum, LP_LARGE_STRUCTURE_SEED, seed)
    return p, refs, text


def check(solve, record, reference, inst):
    """Reasons the result of one solve is wrong; empty when it is right."""
    if "error" in record:
        return [f"raised {record['error']}"]
    if solve.key == "table3":
        return _check_table3(record)
    problems = []
    if record["status"] != "optimal":
        problems.append(f"status {record['status']}")
    if not record["kkt"] <= solve.tol:
        problems.append(f"min KKT {record['kkt']:.3e} > {solve.tol:g}")
    value = record["value"]
    if inst.kind == "diagonal":
        # |sigma_i z_i| <= KKT in every block, so |z| <= sqrt(2) KKT / sigma_min
        bound = math.sqrt(2.0) * solve.tol / min(inst.spec.sigmas)
        if not value <= bound:
            problems.append(f"distance to the saddle point {value:.3e} > {bound:.3e}")
    elif not abs(value - reference) <= OBJECTIVE_TOL_FACTOR * solve.tol * (1.0 + abs(reference)):
        problems.append(f"objective {value!r} vs planted {reference!r}")
    return problems


def check_passes(p, refs, passes):
    """Check every solve of every pass.  Returns the number of solves, a
    line for each failed one, and the iteration total of each pass."""
    instances = {inst.key: inst for inst in p.instances}
    failures = []
    for records in passes:
        for s, rec in zip(p.solves, records):
            reasons = check(s, rec, refs.get(s.key), instances.get(s.key))
            if reasons:
                failures.append(f"{s.label}: {'; '.join(reasons)}")
    iterations = [sum(r["iterations"] for r in records) for records in passes]
    return len(p.solves) * len(passes), failures, iterations


def _check_table3(record):
    rows = {}
    for kappa, mode, iters in record["rows"]:
        rows.setdefault(int(kappa), {})[mode] = iters
    got = {k: (v.get("last"), v.get("restarted")) for k, v in rows.items()}
    problems = []
    if got != TABLE3_ROWS:
        problems.append(f"Table 3 rows {got} != {TABLE3_ROWS}")
    average = tuple(iters for _, iters in record["average_rows"])
    if average != TABLE3_AVERAGE:
        problems.append(f"Table 3 average rows {average} != {TABLE3_AVERAGE}")
    return problems
