"""Small random LPs drawn from fixed seeds, written as MPS text, with HiGHS
(``linprog(method="highs")``) on their original form as the reference.

Two families share the writer and the reference:

* :func:`draw_basic` -- 2-6 rows of kinds E, L and G, 3-8 columns, integer
  entries in [-4, 4] at density 0.6, integer costs in the same range, free
  columns with probability 0.2 and upper bounds in [1, 4] with probability
  0.3.
* :func:`draw_features` -- the same rows, entries and costs, with the MPS
  features the basic family lacks.  Each column has lower bound 0, a
  nonzero lower bound (``LO``), no lower bound and a finite upper one
  (``MI`` and ``UP``) or a fixed value (``FX``).  The first two kinds get
  a finite upper bound (``UP``) with probability 1/2.  Each row has a
  range (``RANGES``) with probability 1/2, of either sign.  The objective
  is maximized with probability 1/2 and has a constant, the negated RHS of
  the objective row.

In both, the right-hand side is planted from an integer point x0 within the
bounds, plus a slack on L and G rows that keeps x0 inside any range, so
every case is feasible.  The costs are drawn independently, so many cases
are unbounded.

A third generator, :func:`qap_relaxation`, builds the paper's own kind of
LP in standard form: the Adams-Johnson linearization relaxation of a
quadratic assignment problem, a degenerate LP unlike the planted ones.
:func:`highs_standard_form` is its reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from restartlp import SparseMatrix, StandardFormLp

# the seeds of the two families: case k of a family is drawn by
# np.random.default_rng([seed, k])
BASIC_SEED = 30
FEATURES_SEED = 34


@dataclass
class Case:
    """One LP: ``kinds`` ("E", "L" or "G") and ``b`` per row, ``A``, ``c``,
    ``lower`` and ``upper`` per column (infinite where there is no bound),
    ``ranges`` as row -> R, and c'x + ``constant`` minimized or, with
    ``maximize``, maximized."""

    kinds: np.ndarray
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    ranges: dict = field(default_factory=dict)
    maximize: bool = False
    constant: int = 0


def draw_basic(rng):
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
    return Case(kinds, A, b, c, lower=np.where(free, -np.inf, 0.0),
                upper=np.where(upper > 0, upper, np.inf))


# column kinds of draw_features
ZERO, LO, MI, FX = range(4)


def draw_features(rng):
    m, n = int(rng.integers(2, 7)), int(rng.integers(3, 9))
    kinds = rng.choice(np.array(["E", "L", "G"]), m)
    A = rng.integers(-4, 5, (m, n)) * (rng.random((m, n)) < 0.6)
    c = rng.integers(-4, 5, n)

    kind = rng.integers(0, 4, n)
    base = rng.integers(1, 4, n) * rng.choice([-1, 1], n)   # LO's, MI's UP and FX's value
    bounded = rng.random(n) < 0.5
    width = rng.integers(1, 5, n)
    lower = np.select([kind == LO, kind == MI, kind == FX], [base, -np.inf, base], 0.0)
    upper = np.where((kind == MI) | (kind == FX), base, np.where(bounded, lower + width, np.inf))
    offset = rng.integers(0, 4, n)
    x0 = np.where(kind == MI, upper - offset, np.minimum(lower + offset, upper))

    ranged = rng.random(m) < 0.5
    size = rng.integers(1, 4, m) * rng.choice([-1, 1], m)
    slack = np.where(ranged, np.minimum(rng.integers(0, 3, m), np.abs(size)),
                     rng.integers(0, 3, m))
    # x0's activity lies in [b - |R|, b] on L rows and E rows with R < 0,
    # and in [b, b + |R|] on G rows and E rows with R >= 0
    below = (kinds == "L") | ((kinds == "E") & ranged & (size < 0))
    above = (kinds == "G") | ((kinds == "E") & ranged & (size > 0))
    b = A @ x0 + np.where(below, slack, 0) - np.where(above, slack, 0)
    ranges = {int(i): int(size[i]) for i in np.flatnonzero(ranged)}
    return Case(kinds, A, b, c, lower, upper, ranges,
                maximize=bool(rng.random() < 0.5), constant=int(rng.integers(-5, 6)))


def to_mps(case):
    """The case as free-format MPS text; every column has its cost entry,
    zero or not, so that it is declared."""
    lines = ["NAME          CORPUS"]
    if case.maximize:
        lines += ["OBJSENSE", "    MAX"]
    lines += ["ROWS", " N  COST"]
    lines += [f" {kind}  R{i}" for i, kind in enumerate(case.kinds)]
    lines.append("COLUMNS")
    for j in range(case.A.shape[1]):
        lines.append(f"    X{j}  COST  {case.c[j]}")
        lines += [f"    X{j}  R{i}  {case.A[i, j]}" for i in np.flatnonzero(case.A[:, j])]
    lines.append("RHS")
    if case.constant:
        lines.append(f"    RHS  COST  {-case.constant}")
    lines += [f"    RHS  R{i}  {v}" for i, v in enumerate(case.b) if v]
    if case.ranges:
        lines.append("RANGES")
        lines += [f"    RNG  R{i}  {r}" for i, r in case.ranges.items()]
    lines.append("BOUNDS")
    for j, (lo, up) in enumerate(zip(case.lower, case.upper)):
        if lo == up:
            lines.append(f" FX BND  X{j}  {lo:g}")
            continue
        if lo == -np.inf:
            lines.append(f" {'FR' if up == np.inf else 'MI'} BND  X{j}")
        elif lo != 0:
            lines.append(f" LO BND  X{j}  {lo:g}")
        if up < np.inf:
            lines.append(f" UP BND  X{j}  {up:g}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def row_intervals(case):
    """(lo, up) per row with lo <= a'x <= up: a range R gives [b - |R|, b]
    on an L row, [b, b + |R|] on a G row, and on an E row [b, b + |R|]
    when R >= 0 and [b - |R|, b] when R < 0."""
    b = case.b.astype(np.float64)
    lo = np.where(case.kinds == "L", -np.inf, b)
    up = np.where(case.kinds == "G", np.inf, b)
    for i, r in case.ranges.items():
        if case.kinds[i] == "L" or (case.kinds[i] == "E" and r < 0):
            lo[i] = b[i] - abs(r)
        else:
            up[i] = b[i] + abs(r)
    return lo, up


def highs(case):
    """HiGHS on the original form: ``(result, objective)``, the objective
    with its sense and constant, or None where HiGHS finds no optimum."""
    lo, up = row_intervals(case)
    eq = lo == up
    le, ge = ~eq & (up < np.inf), ~eq & (lo > -np.inf)
    sign = -1 if case.maximize else 1
    bounds = [(None if l == -np.inf else l, None if u == np.inf else u)
              for l, u in zip(case.lower, case.upper)]
    res = linprog(sign * case.c, A_ub=np.vstack([case.A[le], -case.A[ge]]),
                  b_ub=np.concatenate([up[le], -lo[ge]]), A_eq=case.A[eq], b_eq=lo[eq],
                  bounds=bounds, method="highs")
    return res, (sign * res.fun + case.constant if res.status == 0 else None)


def qap_relaxation(n, seed):
    """The Adams-Johnson linearization relaxation of an n-facility QAP, as
    min c'z, Az = b, z >= 0 over z = (x, y).

    x_ij (facility i at location j, index i n + j) and y_ijkl for i != k
    and j != l (standing for x_ij x_kl, in lexicographic order after x).
    Rows, in this order: the assignment rows sum_j x_ij = 1 and
    sum_i x_ij = 1; the linking rows sum_{i != k} y_ijkl = x_kl for each
    (j, k, l) and sum_{j != l} y_ijkl = x_kl for each (i, k, l); and
    y_ijkl = y_klij for each pair with (i, j) < (k, l).  y_ijkl costs
    f_ik d_jl, with integer flows f, symmetric with zero diagonal, drawn
    from [0, 5] by ``np.random.default_rng(seed)``, and Manhattan distances
    d between locations laid row by row on a grid ceil(sqrt(n)) wide.  At
    n = 5 it is 410 x 425 with 1,450 nonzeros.
    """
    rng = np.random.default_rng(seed)
    flow = np.triu(rng.integers(0, 6, (n, n)), 1)
    flow = flow + flow.T
    width = math.ceil(math.sqrt(n))
    row, col = np.divmod(np.arange(n), width)
    dist = np.abs(row[:, None] - row) + np.abs(col[:, None] - col)

    pairs = list(itertools.product(range(n), repeat=2))
    y_at = {(i, j, k, l): n * n + t for t, (i, j, k, l) in enumerate(
        (i, j, k, l) for (i, j), (k, l) in itertools.product(pairs, pairs)
        if i != k and j != l)}
    c = np.zeros(n * n + len(y_at))
    for (i, j, k, l), t in y_at.items():
        c[t] = flow[i, k] * dist[j, l]

    rows_out, cols_out, vals_out, b = [], [], [], []

    def row_of(entries, rhs):
        for t, v in entries:
            rows_out.append(len(b))
            cols_out.append(t)
            vals_out.append(v)
        b.append(rhs)

    for i in range(n):
        row_of([(i * n + j, 1.0) for j in range(n)], 1.0)
    for j in range(n):
        row_of([(i * n + j, 1.0) for i in range(n)], 1.0)
    for j, (k, l) in itertools.product(range(n), pairs):
        if j != l:
            row_of([(y_at[i, j, k, l], 1.0) for i in range(n) if i != k]
                   + [(k * n + l, -1.0)], 0.0)
    for i, (k, l) in itertools.product(range(n), pairs):
        if i != k:
            row_of([(y_at[i, j, k, l], 1.0) for j in range(n) if j != l]
                   + [(k * n + l, -1.0)], 0.0)
    for (i, j, k, l), t in y_at.items():
        if (i, j) < (k, l):
            row_of([(t, 1.0), (y_at[k, l, i, j], -1.0)], 0.0)
    A = SparseMatrix(len(b), len(c), rows_out, cols_out, vals_out)
    return StandardFormLp(c, A, np.array(b))


def highs_standard_form(problem):
    """HiGHS's optimal objective of min c'x, Ax = b, x >= 0."""
    A = sp.csr_array((problem.A.vals, (problem.A.rows, problem.A.cols)), shape=problem.A.shape)
    res = linprog(problem.c, A_eq=A, b_eq=problem.b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun
