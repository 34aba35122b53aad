"""Benchmark inputs: fixed planted instances, a seeded relabelling, and a
planted-MPS writer.

Each workload solves a fixed set of planted instances.  The benchmark seed
does not draw new instances, because the iterations that a planted random
LP needs to reach a KKT tolerance vary several-fold from one generator seed
to the next: on the 10x20 / 50x100 / 200x400 grid the total ranged from
101k to over 455k iterations across generator seeds 0-6, and some
unrestarted runs never converged.  That spread would swamp the changes the
benchmark exists to show.  The seed instead draws a row and a column
permutation.  PDHG, EGM and ADMM are equivariant under such a relabelling,
so the iterates are the same up to roundoff while the data order, the
memory layout and the MPS text all change with the seed.
"""

from __future__ import annotations

import numpy as np

from restartlp import SparseMatrix, StandardFormLp

# Share of rows written as E; the rest are L or G by the sign of y*.
E_ROW_SHARE = 0.3
# Share of L/G rows that get a RANGES entry.
RANGED_ROW_SHARE = 0.2
# Bound codes on support columns (x*_j > 0), as cumulative shares.
SUPPORT_BOUNDS = (("FR", 0.10), ("MIUP", 0.20), ("LOUP", 0.30), ("FX", 0.35))
# Share of off-support columns (x*_j = 0) that get an upper bound.
OFF_SUPPORT_UP_SHARE = 0.10


def permutations(seed, m, n):
    """Row and column orders drawn from ``seed``: new position k holds old
    row ``rows[k]`` / old column ``cols[k]``."""
    rng = np.random.default_rng([seed, m, n])
    return rng.permutation(m), rng.permutation(n)


def permute_problem(problem, seed):
    """Relabel the rows and columns of a standard-form problem by the
    permutations that ``seed`` draws."""
    A = problem.A
    prow, pcol = permutations(seed, A.n_rows, A.n_cols)
    new_row = np.empty_like(prow)
    new_row[prow] = np.arange(prow.size)
    new_col = np.empty_like(pcol)
    new_col[pcol] = np.arange(pcol.size)
    A2 = SparseMatrix(A.n_rows, A.n_cols, new_row[A.rows], new_col[A.cols], A.vals)
    return StandardFormLp(problem.c[pcol], A2, problem.b[prow], nonneg=problem.nonneg)


def _fmt(values):
    return [repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]


def write_planted_mps(problem, optimum, structure_seed, order_seed, name="PLANTED"):
    """Write a planted standard-form LP as free-format MPS text with every
    feature the parser supports, keeping the planted pair optimal.

    * Rows: a share are E; the others are L where y*_i < 0 and G where
      y*_i > 0, so y* keeps the sign an inequality multiplier needs.  Every
      row is tight at x*, because b = A x*.
    * RANGES on some L/G rows widen them away from b, so x* stays tight.
    * Bounds: FR, MI+UP, LO+UP and FX only on support columns, whose reduced
      cost is zero, with values that contain x*_j; UP on some off-support
      columns, above x*_j = 0.
    * ``OBJSENSE MAX`` with the objective negated.

    ``structure_seed`` draws which rows and columns get which feature,
    ``order_seed`` the order rows and columns are written in.  Values are
    written with all their digits, so the parsed data equal the generated
    data exactly.

    Returns ``(text, objective)``: the MPS text and the planted optimal
    value of the written (maximization) model, -c'x*.
    """
    A = problem.A
    m, n = A.shape
    x, y = optimum.x, optimum.y
    rng = np.random.default_rng(structure_seed)

    sense = np.where(y < 0.0, "L", "G")
    sense[rng.random(m) < E_ROW_SHARE] = "E"
    ranged = (sense != "E") & (rng.random(m) < RANGED_ROW_SHARE)
    range_val = rng.uniform(0.5, 2.0, m)

    support = x > 0.0
    draw = rng.random(n)
    code = np.full(n, "", dtype=object)
    lower_edge = 0.0
    for label, edge in SUPPORT_BOUNDS:
        code[support & (draw >= lower_edge) & (draw < edge)] = label
        lower_edge = edge
    code[~support & (draw < OFF_SUPPORT_UP_SHARE)] = "UP"
    below = x - rng.uniform(0.1, 1.0, n)
    above = x + rng.uniform(0.1, 1.0, n)
    off_up = rng.uniform(0.5, 2.0, n)

    row_order, col_order = permutations(order_seed, m, n)
    row_names = [f"R{i}" for i in range(m)]
    col_names = [f"C{j}" for j in range(n)]

    out = [f"NAME {name}", "OBJSENSE", "    MAX", "ROWS", " N  OBJ"]
    out.extend(f" {sense[i]}  {row_names[i]}" for i in row_order.tolist())

    out.append("COLUMNS")
    order = np.lexsort((A.rows, A.cols))          # column-major entries
    rows_by_col = A.rows[order].tolist()
    vals_by_col = _fmt(A.vals[order])
    starts = np.searchsorted(A.cols[order], np.arange(n + 1)).tolist()
    obj = _fmt(-problem.c)
    for j in col_order.tolist():
        cname = col_names[j]
        pairs = [("OBJ", obj[j])]
        pairs.extend((row_names[rows_by_col[k]], vals_by_col[k])
                     for k in range(starts[j], starts[j + 1]))
        for k in range(0, len(pairs), 2):
            chunk = pairs[k:k + 2]
            out.append(f"    {cname}  " + "  ".join(f"{r}  {v}" for r, v in chunk))

    rhs = _fmt(problem.b)
    out.append("RHS")
    out.extend(f"    RHS  {row_names[i]}  {rhs[i]}"
               for i in row_order.tolist() if problem.b[i] != 0.0)

    rng_txt = _fmt(range_val)
    out.append("RANGES")
    out.extend(f"    RNG  {row_names[i]}  {rng_txt[i]}"
               for i in row_order.tolist() if ranged[i])

    lo_txt, up_txt, x_txt, off_txt = _fmt(below), _fmt(above), _fmt(x), _fmt(off_up)
    out.append("BOUNDS")
    for j in col_order.tolist():
        c, cname = code[j], col_names[j]
        if c == "FR":
            out.append(f" FR BND  {cname}")
        elif c == "MIUP":
            out.append(f" MI BND  {cname}")
            out.append(f" UP BND  {cname}  {up_txt[j]}")
        elif c == "LOUP":
            out.append(f" LO BND  {cname}  {lo_txt[j]}")
            out.append(f" UP BND  {cname}  {up_txt[j]}")
        elif c == "FX":
            out.append(f" FX BND  {cname}  {x_txt[j]}")
        elif c == "UP":
            out.append(f" UP BND  {cname}  {off_txt[j]}")
    out.append("ENDATA")
    return "\n".join(out) + "\n", -float(problem.c @ x)
