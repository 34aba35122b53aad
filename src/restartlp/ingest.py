"""Reading LP instances (an MPS subset), standard-form conversion, and
synthetic instance generators with known optima.

The MPS subset covers ROWS / COLUMNS / RHS / RANGES / BOUNDS with bound codes
LO, UP, FX, FR, MI, PL, in both fixed and free format (whitespace
tokenization), and RANGES on E, L and G rows.  OBJSENSE defaults to
minimization.  No presolve or scaling is applied anywhere in this package.

Ingest works on arrays.  The parser makes one pass over the lines; COLUMNS
lines only have their tokens collected, and when the section ends the values
are converted, the row names looked up and duplicate (row, column) pairs
summed in bulk, giving the three aligned coefficient arrays of
:class:`MpsModel`.  The checks that run at that point (bad numbers,
undeclared rows, integer markers) still run before any later line is read,
so the error raised is always the first one in file order, with its
``line N:`` prefix.  :func:`to_standard_form` classifies rows and columns
with masks and emits A, b and c as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lp_core import SaddlePoint, SparseMatrix, StandardFormLp

__all__ = [
    "MpsParseError",
    "MpsModel",
    "parse_mps",
    "VariableMap",
    "to_standard_form",
    "DiagonalBilinear",
    "RandomLpKnownOptimum",
    "TwoDimToy",
    "generate",
]


class MpsParseError(ValueError):
    pass


_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_UNSUPPORTED = {"SOS", "QUADOBJ", "QMATRIX", "QCMATRIX", "OBJSENSE "}
_BOUND_CODES = {"LO", "UP", "FX", "FR", "MI", "PL"}
_VALUED_BOUNDS = {"LO", "UP", "FX"}
# Row index of the objective row in MpsModel.entry_rows.
OBJECTIVE_ROW = -1


def _empty(dtype):
    return lambda: np.empty(0, dtype=dtype)


@dataclass
class MpsModel:
    """Faithful record of the sections of an MPS file.

    The COLUMNS coefficients are three aligned arrays with one entry per
    distinct (row, column) pair, sorted by column and then by row:

    * ``entry_rows`` -- index into ``row_names``, or ``OBJECTIVE_ROW`` (-1)
      for the objective row;
    * ``entry_cols`` -- index into ``column_names``;
    * ``entry_vals`` -- the pair's values summed in file order,
      ``0.0 + v1 + v2 + ...``.
    """

    name: str = ""
    objective_row: str = ""
    objective_sense: str = "MIN"
    row_names: list = field(default_factory=list)      # constraint rows, declared order
    row_sense: dict = field(default_factory=dict)      # row name -> 'E' | 'L' | 'G'
    column_names: list = field(default_factory=list)   # declared order
    entry_rows: np.ndarray = field(default_factory=_empty(np.int64))
    entry_cols: np.ndarray = field(default_factory=_empty(np.int64))
    entry_vals: np.ndarray = field(default_factory=_empty(np.float64))
    rhs: dict = field(default_factory=dict)            # row -> value
    ranges: dict = field(default_factory=dict)         # row -> value
    bound_records: list = field(default_factory=list)  # (code, col, value-or-None)

    def resolved_bounds(self):
        """Per-column (lower, upper) after applying bound records in order."""
        lo = {c: 0.0 for c in self.column_names}
        up = {c: math.inf for c in self.column_names}
        for code, col, value in self.bound_records:
            if code == "LO":
                lo[col] = value
            elif code == "UP":
                up[col] = value
            elif code == "FX":
                lo[col] = value
                up[col] = value
            elif code == "FR":
                lo[col] = -math.inf
                up[col] = math.inf
            elif code == "MI":
                lo[col] = -math.inf
            elif code == "PL":
                up[col] = math.inf
        return lo, up


class _ColumnsSection:
    """Tokens of the COLUMNS lines, collected as read and checked and
    converted in bulk by :meth:`finish`."""

    def __init__(self):
        self.tokens = []      # every token of every line, in file order
        self.lengths = []     # tokens per line
        self.linenos = []     # line number of each line

    def finish(self, model, lines):
        """Fill the model's columns and coefficient arrays, or raise the
        first error among the collected lines."""
        if not self.lengths:
            return
        lengths = np.array(self.lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        pairs_per_line = (lengths - 1) // 2
        line_of_pair = np.repeat(np.arange(lengths.size), pairs_per_line)
        first_pair = np.cumsum(pairs_per_line) - pairs_per_line
        row_at = starts[line_of_pair] + 1 + 2 * (np.arange(line_of_pair.size)
                                                - first_pair[line_of_pair])
        tokens = np.array(self.tokens, dtype=object)

        row_index = {name: i for i, name in enumerate(model.row_names)}
        if model.objective_row:
            row_index[model.objective_row] = OBJECTIVE_ROW
        try:
            rows = np.fromiter(map(row_index.__getitem__, tokens[row_at].tolist()),
                               dtype=np.int64, count=row_at.size)
            vals = _bulk_float(tokens[row_at + 1].tolist())
        except (KeyError, ValueError):
            self._raise_first_error(model, lines)
        # a declared row with a marker-like name still makes its line a marker
        markers = {r for r in row_index if _is_marker(r)}
        if markers and not markers.isdisjoint(tokens[starts + 1].tolist()):
            self._raise_first_error(model, lines)

        # a column's lines usually follow one another: look names up per run
        col_tokens = tokens[starts]
        run_head = np.ones(col_tokens.size, dtype=bool)
        run_head[1:] = col_tokens[1:] != col_tokens[:-1]
        run_names = col_tokens[run_head].tolist()
        model.column_names = list(dict.fromkeys(run_names))
        col_index = {name: j for j, name in enumerate(model.column_names)}
        run_cols = np.fromiter(map(col_index.__getitem__, run_names),
                               dtype=np.int64, count=len(run_names))
        cols = run_cols[np.cumsum(run_head) - 1][line_of_pair]

        # Sort by (column, row) to find repeated pairs, then sum each pair's
        # values in file order: bincount adds the weights one at a time in
        # index order onto 0.0.  ravel_multi_index raises rather than
        # overflow on shapes too large for one int64 key.
        key = np.ravel_multi_index((cols, rows + 1),
                                   (len(model.column_names), len(model.row_names) + 1))
        order = np.argsort(key)
        key = key[order]
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        group = np.empty(key.size, dtype=np.int64)
        group[order] = np.cumsum(new) - 1
        model.entry_cols = cols[order][new]
        model.entry_rows = rows[order][new]
        model.entry_vals = np.bincount(group, weights=vals, minlength=model.entry_rows.size)

    def _raise_first_error(self, model, lines):
        """Re-check the collected lines one pair at a time, as they were
        read, and raise the first failure."""
        for lineno in self.linenos:
            parts = lines[lineno - 1].split()
            if _is_marker(parts[1]):
                raise MpsParseError(f"line {lineno}: integer markers are not supported")
            for i in range(1, len(parts), 2):
                row = parts[i]
                _tofloat(parts[i + 1], lineno)
                if row != model.objective_row and row not in model.row_sense:
                    raise MpsParseError(f"line {lineno}: undeclared row {row!r}")
        raise AssertionError("bulk COLUMNS check failed on no line")


def _is_marker(token):
    return token.upper().strip("'") == "MARKER"


def parse_mps(text):
    """Parse MPS text (fixed or free format) into an :class:`MpsModel`.

    Raises :class:`MpsParseError` on unsupported sections, out-of-order
    sections, undeclared names, unknown bound codes, or integer markers.
    The error raised is the first one in file order.
    """
    model = MpsModel()
    section = None
    seen = set()
    # ROWS must precede COLUMNS, which must precede the data sections;
    # RHS / RANGES / BOUNDS may come in any relative order
    rank = {"NAME": 0, "OBJSENSE": 0, "ROWS": 1, "COLUMNS": 2,
            "RHS": 3, "RANGES": 3, "BOUNDS": 3}

    def enter(sec):
        if sec in seen:
            raise MpsParseError(f"section {sec} repeated")
        for s in seen:
            if rank[s] > rank[sec]:
                raise MpsParseError(f"section {sec} out of order (after {s})")
        seen.add(sec)
        return sec

    pending_objsense = False
    columns = None
    known_cols = set()
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "*":
            continue
        if raw[0] not in " \t":
            if columns is not None:
                columns.finish(model, lines)
                known_cols = set(model.column_names)
                columns = None
            key = parts[0].upper()
            if key == "ENDATA":
                break
            if key in _SECTIONS:
                section = enter(key)
                if key == "NAME":
                    model.name = parts[1] if len(parts) > 1 else ""
                    section = None
                elif key == "OBJSENSE":
                    if len(parts) > 1:
                        model.objective_sense = parts[1].upper()
                        section = None
                    else:
                        pending_objsense = True
                elif key == "COLUMNS":
                    columns = _ColumnsSection()
                continue
            raise MpsParseError(f"line {lineno}: unsupported section {parts[0]!r}")

        if pending_objsense:
            sense = parts[0].upper()
            if sense not in ("MIN", "MAX", "MINIMIZE", "MAXIMIZE"):
                raise MpsParseError(f"line {lineno}: bad OBJSENSE value {parts[0]!r}")
            model.objective_sense = "MAX" if sense.startswith("MAX") else "MIN"
            pending_objsense = False
            continue

        if section == "COLUMNS":
            n = len(parts)
            if n & 1 and n > 1:
                columns.tokens.extend(parts)
                columns.lengths.append(n)
                columns.linenos.append(lineno)
                continue
            # errors on earlier lines come first
            columns.finish(model, lines)
            if n >= 3 and _is_marker(parts[1]):
                raise MpsParseError(f"line {lineno}: integer markers are not supported")
            raise MpsParseError(f"line {lineno}: malformed COLUMNS line")

        if section == "ROWS":
            if len(parts) != 2:
                raise MpsParseError(f"line {lineno}: ROWS lines need sense and name")
            sense, name = parts[0].upper(), parts[1]
            if name in model.row_sense or name == model.objective_row:
                raise MpsParseError(f"line {lineno}: row {name!r} declared twice")
            if sense == "N":
                if model.objective_row:
                    raise MpsParseError(
                        f"line {lineno}: second N row {name!r}; exactly one objective row is supported")
                model.objective_row = name
            elif sense in ("E", "L", "G"):
                model.row_names.append(name)
                model.row_sense[name] = sense
            else:
                raise MpsParseError(f"line {lineno}: unknown row sense {sense!r}")

        elif section in ("RHS", "RANGES"):
            target = model.rhs if section == "RHS" else model.ranges
            pairs = parts[1:] if len(parts) % 2 == 1 else parts
            if len(parts) % 2 == 0 and parts[0] not in model.row_sense and parts[0] != model.objective_row:
                raise MpsParseError(f"line {lineno}: malformed {section} line")
            if len(pairs) % 2 != 0:
                raise MpsParseError(f"line {lineno}: malformed {section} line")
            for i in range(0, len(pairs), 2):
                row, val = pairs[i], _tofloat(pairs[i + 1], lineno)
                if section == "RANGES" and row == model.objective_row:
                    raise MpsParseError(f"line {lineno}: RANGES on the objective row")
                if row != model.objective_row and row not in model.row_sense:
                    raise MpsParseError(f"line {lineno}: undeclared row {row!r}")
                target[row] = val

        elif section == "BOUNDS":
            code = parts[0].upper()
            if code not in _BOUND_CODES:
                raise MpsParseError(f"line {lineno}: unknown bound code {code!r}")
            if code in _VALUED_BOUNDS:
                if len(parts) < 4:
                    raise MpsParseError(f"line {lineno}: bound {code} needs a value")
                col, value = parts[2], _tofloat(parts[3], lineno)
            else:
                col = parts[2] if len(parts) >= 3 else parts[1]
                value = None
            if col not in known_cols:
                raise MpsParseError(f"line {lineno}: bound on undeclared column {col!r}")
            model.bound_records.append((code, col, value))

        elif section is None:
            raise MpsParseError(f"line {lineno}: data before any section header")
        else:
            raise MpsParseError(f"line {lineno}: unexpected data in section {section}")

    if columns is not None:
        columns.finish(model, lines)
    if not model.objective_row and (model.column_names or model.row_names):
        raise MpsParseError("no objective (N) row declared")
    return model


def _tofloat(tok, lineno):
    try:
        return float(tok.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MpsParseError(f"line {lineno}: bad numeric field {tok!r}") from None


def _bulk_float(tokens):
    """``_tofloat`` over a list of tokens, as one array; raises ValueError
    if any token is not a number."""
    joined = " ".join(tokens)
    if "D" in joined or "d" in joined:
        # tokens hold no whitespace, so joining on a space and splitting
        # again returns them with only the exponent letters changed
        tokens = joined.replace("D", "E").replace("d", "e").split(" ")
    return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))


# ---------------------------------------------------------------------------
# Standard-form conversion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Shifted:
    index: int
    shift: float


@dataclass(frozen=True)
class _Reflected:
    index: int
    upper: float


@dataclass(frozen=True)
class _Split:
    pos_index: int
    neg_index: int


@dataclass(frozen=True)
class _Fixed:
    value: float


@dataclass
class VariableMap:
    """Recovers original-model variables from standard-form solutions.

    Transformations per original column:
      * shifted:   x = l + x'          (finite lower bound)
      * reflected: x = u - x'          (lower -inf, finite upper)
      * split:     x = x+ - x-         (free variable)
      * fixed:     x = v               (FX; substituted out)
    Upper bounds become extra rows x' + s = u - l with a fresh slack.
    """

    column_names: list
    mapping: dict                 # original column name -> transform record
    objective_offset: float
    objective_sense: str
    n_standard: int

    def to_original(self, x_standard):
        x_standard = np.asarray(x_standard, dtype=np.float64)
        out = np.empty(len(self.column_names))
        for j, name in enumerate(self.column_names):
            rec = self.mapping[name]
            if isinstance(rec, _Shifted):
                out[j] = rec.shift + x_standard[rec.index]
            elif isinstance(rec, _Reflected):
                out[j] = rec.upper - x_standard[rec.index]
            elif isinstance(rec, _Split):
                out[j] = x_standard[rec.pos_index] - x_standard[rec.neg_index]
            else:
                out[j] = rec.value
        return out

    def original_objective(self, problem, x_standard):
        val = float(problem.c @ x_standard) + self.objective_offset
        return -val if self.objective_sense == "MAX" else val


@np.errstate(over="ignore", invalid="ignore")
def to_standard_form(model):
    """Convert an :class:`MpsModel` to ``min c'x, Ax = b, x >= 0``.

    Returns ``(StandardFormLp, VariableMap)``.  Inequality rows get slack
    variables, free variables are split, finite bounds are shifted (and
    upper bounds slacked into extra rows).  RANGES R on a row with
    right-hand side r give [r - |R|, r] on an L row, [r, r + |R|] on a G
    row, and on an E row [r, r + |R|] when R >= 0 and [r - |R|, r] when
    R < 0.

    Sums are taken in the order of a column-by-column pass, which the
    column-sorted entries of the model give: each row's
    ``b_i -= a_ij * shift_j`` by ascending column, and the objective offset
    column after column.  Overflow and invalid values are not warned about,
    as with Python floats.
    """
    names = model.column_names
    n = len(names)
    lo_of, up_of = model.resolved_bounds()
    lo = np.array([lo_of[c] for c in names], dtype=np.float64)
    up = np.array([up_of[c] for c in names], dtype=np.float64)
    bad = np.flatnonzero(lo > up)
    if bad.size:
        col = names[bad[0]]
        raise ValueError(f"contradictory bounds on column {col!r}: "
                         f"[{lo_of[col]}, {up_of[col]}]")
    if model.objective_row in model.ranges:
        raise ValueError("RANGES on the objective row")

    # Row intervals row_lo <= a'x <= row_up.
    m = len(model.row_names)
    sense = np.array([model.row_sense[row] for row in model.row_names], dtype="U1")
    r = np.array([model.rhs.get(row, 0.0) for row in model.row_names], dtype=np.float64)
    has_range = np.array([row in model.ranges for row in model.row_names], dtype=bool)
    rng = np.array([model.ranges.get(row, 0.0) for row in model.row_names], dtype=np.float64)
    is_e, is_l = sense == "E", sense == "L"
    is_g = ~is_e & ~is_l
    below = has_range & (is_l | (is_e & (rng < 0)))        # [r - |R|, r]
    above = has_range & (is_g | (is_e & ~(rng < 0)))       # [r, r + |R|]
    row_lo = np.where(below, r - np.abs(rng), np.where(is_l & ~has_range, -np.inf, r))
    row_up = np.where(above, r + np.abs(rng), np.where(is_g & ~has_range, np.inf, r))

    # Equalize rows: a'x (+/- slack) = rhs.  Ranged rows get a bounded slack.
    equal = row_lo == row_up
    open_below = ~equal & np.isinf(row_lo)                 # a'x <= row_up: +slack
    open_above = ~equal & ~open_below & np.isinf(row_up)   # a'x >= row_lo: -slack
    ranged = ~equal & ~open_below & ~open_above            # +slack <= row_up - row_lo
    b = np.where(open_above, row_lo, row_up)
    slack_up = np.full(m, np.inf)
    slack_up[ranged] = row_up[ranged] - row_lo[ranged]
    slack_rows = np.flatnonzero(~equal)
    s = slack_rows.size

    # Interim columns: the original columns, then one slack per inequality
    # row, each with bounds [l, u], an objective coefficient and entries
    # sorted by column.
    sense_flip = -1.0 if model.objective_sense == "MAX" else 1.0
    l = np.concatenate([lo, np.zeros(s)])
    u = np.concatenate([up, slack_up[slack_rows]])
    cost = np.zeros(n + s)
    obj = model.entry_rows == OBJECTIVE_ROW
    cost[model.entry_cols[obj]] = 0.0 + sense_flip * model.entry_vals[obj]
    e_rows = np.concatenate([model.entry_rows[~obj], slack_rows])
    e_cols = np.concatenate([model.entry_cols[~obj], n + np.arange(s)])
    e_vals = np.concatenate([model.entry_vals[~obj],
                             np.where(open_above, -1.0, 1.0)[slack_rows]])

    # Everything becomes x' >= 0: fixed columns are substituted out, free
    # ones split in two, the others shifted x = l + x' or reflected
    # x = u - x'.  Finite upper bounds of shifted columns spawn rows.
    fixed = l == u
    free = ~fixed & np.isinf(l) & np.isinf(u)
    reflected = ~fixed & ~free & np.isinf(l)
    shifted = ~fixed & ~free & ~reflected
    width = np.where(fixed, 0, np.where(free, 2, 1))
    first = np.cumsum(width) - width          # first standard column of each
    n_main = int(width.sum())

    anchor = np.where(reflected, u, l)        # x = anchor +/- x'
    moved = fixed | reflected | (shifted & (l != 0.0))
    hit = moved[e_cols]
    np.subtract.at(b, e_rows[hit], e_vals[hit] * anchor[e_cols[hit]])
    # an RHS entry on the objective row is the negated objective constant
    offset = -sense_flip * model.rhs.get(model.objective_row, 0.0)
    for term in (cost[moved] * anchor[moved]).tolist():
        offset += term

    keep = ~fixed[e_cols]
    kr, kc, kv = e_rows[keep], e_cols[keep], e_vals[keep]
    split = free[kc]
    bounded = np.flatnonzero(shifted & ~np.isinf(u))
    k = bounded.size
    bound_rows = m + np.arange(k)
    rows_out = np.concatenate([kr, kr[split], bound_rows, bound_rows])
    cols_out = np.concatenate([first[kc], first[kc[split]] + 1, first[bounded],
                               n_main + np.arange(k)])
    vals_out = np.concatenate([np.where(reflected, -1.0, 1.0)[kc] * kv,
                               -1.0 * kv[split], np.ones(2 * k)])
    c = np.zeros(n_main + k)
    c[first[~fixed]] = np.where(reflected, -cost, cost)[~fixed]
    c[first[free] + 1] = -cost[free]
    b = np.concatenate([b, u[bounded] - l[bounded]])

    mapping = {}
    for name, j, lj, uj, fx, fr, rf in zip(
            names, first[:n].tolist(), lo.tolist(), up.tolist(),
            fixed[:n].tolist(), free[:n].tolist(), reflected[:n].tolist()):
        if fx:
            mapping[name] = _Fixed(lj)
        elif fr:
            mapping[name] = _Split(j, j + 1)
        elif rf:
            mapping[name] = _Reflected(j, uj)
        else:
            mapping[name] = _Shifted(j, lj)

    A = SparseMatrix(m + k, n_main + k, rows_out, cols_out, vals_out)
    problem = StandardFormLp(c, A, b)
    vmap = VariableMap(
        column_names=list(names),
        mapping=mapping,
        objective_offset=offset,
        objective_sense=model.objective_sense,
        n_standard=n_main + k,
    )
    return problem, vmap


# ---------------------------------------------------------------------------
# Synthetic generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalBilinear:
    """Unconstrained bilinear saddle with interaction y' diag(sigmas) x.

    The unique saddle point is the origin when all sigmas are positive.
    """

    sigmas: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if not self.sigmas or any(s <= 0 for s in self.sigmas):
            raise ValueError("sigmas must be strictly positive")


@dataclass(frozen=True)
class RandomLpKnownOptimum:
    """Random sparse standard-form LP with a planted optimal pair.

    Constructed so that complementary slackness holds exactly: draw x* >= 0
    supported on ceil(min(m, n) / 2) coordinates, free y*, set b = A x* and
    c = A'y* + s with s zero on the support and positive off it.
    """

    m: int
    n: int
    density: float
    seed: int

    def __post_init__(self):
        if self.m <= 0 or self.n <= 0:
            raise ValueError("m and n must be positive")
        if not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")


@dataclass(frozen=True)
class TwoDimToy:
    """The two-dimensional bilinear toy L(x, y) = x y."""


def generate(spec):
    """Build an instance from a generator spec.

    Returns ``(problem, optimum)`` where ``optimum`` is a SaddlePoint with
    zero KKT error, or None when no optimum is planted.
    """
    if isinstance(spec, TwoDimToy):
        return generate(DiagonalBilinear((1.0,)))

    if isinstance(spec, DiagonalBilinear):
        k = len(spec.sigmas)
        # interaction term in the data convention L = c'x + b'y - y'Ax,
        # so A = -diag(sigma) realizes +y' diag(sigma) x
        idx = np.arange(k)
        A = SparseMatrix(k, k, idx, idx, -np.asarray(spec.sigmas))
        problem = StandardFormLp(np.zeros(k), A, np.zeros(k), nonneg=False)
        return problem, SaddlePoint(np.zeros(k), np.zeros(k))

    if isinstance(spec, RandomLpKnownOptimum):
        rng = np.random.default_rng(spec.seed)
        m, n = spec.m, spec.n
        nnz = max(1, int(round(spec.density * m * n)))
        flat = rng.choice(m * n, size=nnz, replace=False)
        rows, cols = np.divmod(flat, n)
        vals = rng.standard_normal(nnz)
        A = SparseMatrix(m, n, rows, cols, vals)

        support_size = math.ceil(min(m, n) / 2)
        support = rng.choice(n, size=support_size, replace=False)
        x_star = np.zeros(n)
        x_star[support] = rng.uniform(0.5, 1.5, size=support_size)
        y_star = rng.standard_normal(m)
        s = rng.uniform(0.1, 1.0, size=n)
        s[support] = 0.0

        b = A.matvec(x_star)
        c = A.rmatvec(y_star) + s
        problem = StandardFormLp(c, A, b)
        return problem, SaddlePoint(x_star, y_star)

    raise ValueError(f"unknown generator spec {spec!r}")
