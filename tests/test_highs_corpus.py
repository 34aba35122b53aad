"""Differential corpus: small random LPs through the whole MPS pipeline
against HiGHS.

Each case is drawn from a fixed seed: 2-6 rows of kinds E, L and G, 3-8
columns, integer entries in [-4, 4] at density 0.6, integer costs in the
same range, free columns with probability 0.2 and finite upper bounds with
probability 0.3.  The right-hand side is planted from an integer point x0
within the bounds, plus a slack on L and G rows, so every case is feasible;
the costs are drawn independently, so many cases are unbounded.

A case is written as MPS text and run through ``parse_mps``,
``to_standard_form`` and PDHG with adaptive restarts to KKT 1e-8; HiGHS
(``linprog(method="highs")``) solves the original form.  Where HiGHS finds
an optimum, the objectives agree; no other case ends ``optimal``.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from restartlp import (
    RestartScheme,
    SolveOptions,
    Status,
    StepConfig,
    parse_mps,
    power_method_sigma_max,
    run_restarted,
    to_standard_form,
)
from restartlp.steps import PDHG

SEED = 30
CASES = 60
KKT_TOL = 1e-8
OBJECTIVE_RTOL = 1e-5
# A case HiGHS solves stops at KKT_TOL well before its cap; a case it does
# not solve runs to its cap, which bounds the corpus's time.
OPTIMAL_LIMIT = 20_000
OTHER_LIMIT = 2_000


def draw(rng):
    """(kinds, A, b, c, free, upper) of one case; ``upper[j]`` is 0 for a
    column without a finite upper bound."""
    m, n = int(rng.integers(2, 7)), int(rng.integers(3, 9))
    kinds = rng.choice(np.array(["E", "L", "G"]), m)
    A = rng.integers(-4, 5, (m, n)) * (rng.random((m, n)) < 0.6)
    c = rng.integers(-4, 5, n)
    free = rng.random(n) < 0.2
    upper = np.where(~free & (rng.random(n) < 0.3), rng.integers(1, 5, n), 0)
    x0 = np.where(free, rng.integers(-3, 4, n), rng.integers(0, 4, n))
    x0 = np.where(upper > 0, np.minimum(x0, upper), x0)
    slack = rng.integers(0, 3, m)
    b = A @ x0 + np.where(kinds == "L", slack, 0) - np.where(kinds == "G", slack, 0)
    return kinds, A, b, c, free, upper


def to_mps(kinds, A, b, c, free, upper):
    """The case as free-format MPS text; every column has its cost entry,
    zero or not, so that it is declared."""
    lines = ["NAME          CORPUS", "ROWS", " N  COST"]
    lines += [f" {kind}  R{i}" for i, kind in enumerate(kinds)]
    lines.append("COLUMNS")
    for j in range(A.shape[1]):
        lines.append(f"    X{j}  COST  {c[j]}")
        lines += [f"    X{j}  R{i}  {A[i, j]}" for i in np.flatnonzero(A[:, j])]
    lines.append("RHS")
    lines += [f"    RHS  R{i}  {v}" for i, v in enumerate(b) if v]
    lines.append("BOUNDS")
    lines += [f" FR BND  X{j}" for j in np.flatnonzero(free)]
    lines += [f" UP BND  X{j}  {upper[j]}" for j in np.flatnonzero(upper)]
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def highs(kinds, A, b, c, free, upper):
    """HiGHS on the original form: G rows negated into A_ub with L rows."""
    sign = np.where(kinds == "G", -1, 1)
    eq = kinds == "E"
    bounds = [(None, None) if f else (0, u or None) for f, u in zip(free, upper)]
    return linprog(c, A_ub=(sign[:, None] * A)[~eq], b_ub=(sign * b)[~eq],
                   A_eq=A[eq], b_eq=b[eq], bounds=bounds, method="highs")


@pytest.mark.parametrize("case", range(CASES))
def test_pdhg_agrees_with_highs(case):
    lp = draw(np.random.default_rng([SEED, case]))
    ref = highs(*lp)
    problem, vmap = to_standard_form(parse_mps(to_mps(*lp)))
    sigma = power_method_sigma_max(problem.A)
    solved = ref.status == 0
    options = SolveOptions(StepConfig(PDHG, 0.9 / sigma), RestartScheme.adaptive(),
                           kkt_tol=KKT_TOL,
                           iteration_limit=OPTIMAL_LIMIT if solved else OTHER_LIMIT)
    res = run_restarted(problem, options)
    if solved:
        assert res.status == Status.OPTIMAL, (res.status, res.iterations)
        got = vmap.original_objective(problem, res.solution.x)
        assert abs(got - ref.fun) <= OBJECTIVE_RTOL * max(1.0, abs(ref.fun)), (got, ref.fun)
    else:
        assert res.status != Status.OPTIMAL, (ref.message, res.iterations)
