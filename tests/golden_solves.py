"""The golden solve record: a fixed set of small solves and what they return.

``tests/golden_solves.json`` holds, for each solve below, what
:func:`record_of` reads off its result: the status, the iteration count and
the restart iterations, each trace row's integers and floats (the floats as
``float.hex``), and a sha256 over the bits of every returned point.  The
corpus cases, which run from MPS text, add their objective in the original
model.  One solve is of the paper's own kind of LP, a QAP linearization
relaxation (:func:`corpus.qap_relaxation`).
``tests/test_golden_solves.py`` runs the solves again and compares the
integers exactly and the floats to a relative tolerance, since float bits
depend on the CPU kernel OpenBLAS picks.  On one machine a change that
keeps every bit regenerates the record unchanged, so ``git diff`` of the
regenerated file shows which solves moved.

Regenerate the record with one BLAS thread::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden_solves.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from restartlp import (
    DiagonalBilinear,
    RandomLpKnownOptimum,
    RestartScheme,
    SaddlePoint,
    SolveOptions,
    StepConfig,
    generate,
    parse_mps,
    power_method_sigma_max,
    run_restarted,
    table3_scaling_experiment,
    to_standard_form,
)
from restartlp.cli import tune_primal_weight
from restartlp.steps import ADMM, EGM, PDHG, PPM_BILINEAR

from corpus import FEATURES_SEED, draw_features, qap_relaxation, to_mps

PATH = Path(__file__).with_name("golden_solves.json")

PLANTED = {"planted-10x20": RandomLpKnownOptimum(10, 20, 0.4, 0),
           "planted-50x100": RandomLpKnownOptimum(50, 100, 0.2, 1)}
ADMM_PLANTED = ("planted-20x40", RandomLpKnownOptimum(20, 40, 0.3, 2))
DIAGONAL = ("diagonal-16", DiagonalBilinear(tuple(np.linspace(1.0 / 16, 1.0, 10))))
SCHEMES = {"none": RestartScheme.none(), "fixed": RestartScheme.fixed(64),
           "adaptive": RestartScheme.adaptive(), "flexible": RestartScheme.flexible()}
KKT_TOL = 1e-6
ITERATION_LIMIT = 20_000
CHECK_CADENCE = 30
TABLE3_KAPPAS = (4, 8)
TABLE3_EPS = 1e-6
TUNE_ITERATIONS = 500
# cases of the corpus's features family: 3 minimizes, with ranges on G, L
# and E rows (R < 0 on the E row) and FX columns; 9 and 14 maximize, with
# MI, LO and FX columns, and 14 has ranges on G, E (R > 0) and L rows
CORPUS_CASES = (3, 9, 14)
# (n, seed) of the QAP linearization relaxation, the paper's own kind of LP
QAP = (5, 0)


def _solve(spec, method, scheme):
    """``method`` under ``scheme`` on the instance of ``spec``, as
    :func:`_run` runs it."""
    return _run(generate(spec)[0], method, scheme)


def _run(problem, method, scheme):
    """``method`` under ``scheme`` on ``problem``, with the step sizes the
    benchmark uses; an unconstrained problem starts from ones."""
    z0 = None
    if method == ADMM:
        config = StepConfig(ADMM, 1.0)
    else:
        sigma = power_method_sigma_max(problem.A)
        config = StepConfig(method, 0.9 / sigma, lipschitz=1.01 * sigma if method == EGM else None)
    if not problem.nonneg:
        z0 = SaddlePoint(np.ones(problem.n), np.ones(problem.m))
    options = SolveOptions(config, scheme, kkt_tol=KKT_TOL, iteration_limit=ITERATION_LIMIT,
                           check_cadence=CHECK_CADENCE)
    return run_restarted(problem, options, z0)


def _solve_mps(case):
    """Case ``case`` of the corpus's features family through ``parse_mps``,
    ``to_standard_form`` and PDHG with adaptive restarts; its record adds
    the objective in the original model."""
    model = parse_mps(to_mps(draw_features(np.random.default_rng([FEATURES_SEED, case]))))
    problem, vmap = to_standard_form(model)
    config = StepConfig(PDHG, 0.9 / power_method_sigma_max(problem.A))
    options = SolveOptions(config, SCHEMES["adaptive"], kkt_tol=KKT_TOL,
                           iteration_limit=ITERATION_LIMIT, check_cadence=CHECK_CADENCE)
    result = run_restarted(problem, options)
    objective = vmap.original_objective(problem, result.solution.x)
    return {**record_of(result), "objective": float(objective).hex()}


def record_of(result):
    """What the record keeps of one :class:`~restartlp.restarts.SolveResult`."""
    digest = hashlib.sha256()
    for point in (result.solution, result.average, result.last):
        digest.update(point.as_vector().tobytes())
    for anchor in result.anchors:
        digest.update(anchor.tobytes())
    rows = [[r.iteration, r.outer, r.inner, r.restarted,
             *(float(v).hex() for v in (r.normalized_gap, r.kkt_avg, r.kkt_last, r.radius))]
            for r in result.trace.records]
    return {"status": result.status, "iterations": result.iterations,
            "restart_iterations": [r.iteration for r in result.trace.records if r.restarted],
            "rows": rows,
            "sha256": digest.hexdigest()}


def _table3():
    report = table3_scaling_experiment(list(TABLE3_KAPPAS), TABLE3_EPS)
    return {"rows": [list(row) for row in report.rows],
            "average_rows": [list(row) for row in report.average_rows]}


def _tune():
    problem, _ = generate(PLANTED["planted-50x100"])
    eta = 0.9 / power_method_sigma_max(problem.A)
    omega, table = tune_primal_weight(problem, PDHG, eta, iterations=TUNE_ITERATIONS)
    return {"omega": omega, "table": [[w, float(err).hex()] for w, err in table]}


def _solves():
    """Name -> a function of no argument that returns the solve's record."""
    solves = {}
    for key, spec in PLANTED.items():
        for method in (PDHG, EGM):
            for kind, scheme in SCHEMES.items():
                solves[f"{key}/{method}/{kind}"] = (spec, method, scheme)
    for kind in ("adaptive", "flexible"):
        solves[f"{ADMM_PLANTED[0]}/admm/{kind}"] = (ADMM_PLANTED[1], ADMM, SCHEMES[kind])
    for method in (PPM_BILINEAR, PDHG):
        solves[f"{DIAGONAL[0]}/{method}/adaptive"] = (DIAGONAL[1], method, SCHEMES["adaptive"])
    out = {name: (lambda args=args: record_of(_solve(*args))) for name, args in solves.items()}
    out["table3"] = _table3
    out["tune-omega/planted-50x100"] = _tune
    for case in CORPUS_CASES:
        out[f"corpus-{FEATURES_SEED}-{case}/pdhg/adaptive"] = lambda case=case: _solve_mps(case)
    out["qap-{}-{}/pdhg/adaptive".format(*QAP)] = lambda: record_of(
        _run(qap_relaxation(*QAP), PDHG, SCHEMES["adaptive"]))
    return out


SOLVES = _solves()


def main():
    records = {name: run() for name, run in SOLVES.items()}
    PATH.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} solves to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
