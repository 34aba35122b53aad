"""Reading LP instances (an MPS subset), standard-form conversion, and
synthetic instance generators with known optima.

The MPS subset covers ROWS / COLUMNS / RHS / RANGES / BOUNDS with bound codes
LO, UP, FX, FR, MI, PL, in both fixed and free format (whitespace
tokenization), and RANGES on E, L and G rows.  OBJSENSE defaults to
minimization.  Ingest applies no presolve and no scaling; the solve rescales
every LP itself (see :mod:`restartlp.scaling`).

Ingest works on arrays, in memory bounded by a fixed batch rather than by
the file.  The parser splits the text into lines a chunk of about 256k
characters at a time and makes one pass over them, so no list of every
line is built.  COLUMNS lines only have their tokens collected, and every
4,096 lines, and when the section ends, the batch is checked in bulk: its
values converted, its row names looked up and its columns numbered in
order of first appearance.  The batch becomes two arrays of 8 bytes per
coefficient, a packed (column, row) key and a value, and its tokens are
dropped.  When the section ends, the keys of all batches are sorted once
and duplicate (row, column) pairs summed in file order, giving the three
aligned coefficient arrays of :class:`MpsModel`.  On a 16 MB text with
440k coefficients, this parse raises the peak resident memory by about
30 MB, where holding every line and token at once raised it by 180 MB.
The checks of a batch (bad or non-finite numbers, undeclared rows,
integer markers) run before any later line is read, so the error raised
is always the first one in file order, with its ``line N:`` prefix.
:func:`to_standard_form` classifies rows and columns with masks and emits
A, b and c as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .lp_core import SaddlePoint, SparseMatrix, StandardFormLp, _dot

__all__ = [
    "MpsParseError",
    "MpsModel",
    "parse_mps",
    "VariableMap",
    "to_standard_form",
    "DiagonalBilinear",
    "RandomLpKnownOptimum",
    "generate",
]


class MpsParseError(ValueError):
    pass


_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_BOUND_CODES = {"LO", "UP", "FX", "FR", "MI", "PL"}
_VALUED_BOUNDS = {"LO", "UP", "FX"}
# Characters of text split into lines at a time, and COLUMNS lines
# converted to arrays at a time: together they bound the parse's memory.
_CHUNK_CHARS = 1 << 18
_BATCH_LINES = 4096
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
    """The COLUMNS section, read a batch of lines at a time.

    Lines only have their tokens collected; every ``_BATCH_LINES`` lines,
    and when the section ends, :meth:`convert` checks the batch in bulk and
    turns it into two arrays, the packed (column, row) key and the value of
    each pair, and drops the tokens.  :meth:`finish` sums the pairs of all
    batches into the model's coefficient arrays."""

    def __init__(self, model):
        self.model = model
        self.row_index = {name: i for i, name in enumerate(model.row_names)}
        if model.objective_row:
            self.row_index[model.objective_row] = OBJECTIVE_ROW
        # a declared row with a marker-like name still makes its line a marker
        self.markers = {r for r in self.row_index if _is_marker(r)}
        self.col_index = {}   # column name -> index, in order of first appearance
        self.keys = []        # per converted batch: col * (rows + 1) + row + 1
        self.vals = []        # per converted batch: the values, in file order
        self._clear()

    def _clear(self):
        self.tokens = []      # every token of every line of the batch, in file order
        self.lengths = []     # tokens per line
        self.linenos = []     # line number of each line

    def convert(self):
        """Check the collected lines and convert them to arrays, or raise
        the first error among them."""
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
        try:
            rows = np.fromiter(map(self.row_index.__getitem__, tokens[row_at].tolist()),
                               dtype=np.int64, count=row_at.size)
            vals = _bulk_float(tokens[row_at + 1].tolist())
        except (KeyError, ValueError):
            self._raise_first_error()
        if not np.isfinite(vals).all() or (
                self.markers and not self.markers.isdisjoint(tokens[starts + 1].tolist())):
            self._raise_first_error()

        # a column's lines usually follow one another: look names up per run
        col_tokens = tokens[starts]
        run_head = np.ones(col_tokens.size, dtype=bool)
        run_head[1:] = col_tokens[1:] != col_tokens[:-1]
        run_names = col_tokens[run_head].tolist()
        col_index = self.col_index
        fresh = [name for name in dict.fromkeys(run_names) if name not in col_index]
        col_index.update(zip(fresh, range(len(col_index), len(col_index) + len(fresh))))
        run_cols = np.fromiter(map(col_index.__getitem__, run_names),
                               dtype=np.int64, count=len(run_names))
        cols = run_cols[np.cumsum(run_head) - 1][line_of_pair]
        # ravel_multi_index raises rather than overflow on shapes too large
        # for one int64 key
        self.keys.append(np.ravel_multi_index(
            (cols, rows + 1), (len(col_index), len(self.model.row_names) + 1)))
        self.vals.append(vals)
        self._clear()

    def finish(self):
        """Convert the last batch and fill the model's columns and
        coefficient arrays."""
        self.convert()
        model = self.model
        model.column_names = list(self.col_index)
        if not self.keys:
            return
        key = np.concatenate(self.keys)
        self.keys = None
        vals = np.concatenate(self.vals)
        self.vals = None
        # Sort the keys to find repeated pairs, then sum each pair's values
        # in file order: bincount adds the weights one at a time in index
        # order onto 0.0.
        order = np.argsort(key)
        key = key[order]
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        group = np.empty(key.size, dtype=np.int64)
        group[order] = np.cumsum(new) - 1
        del order
        model.entry_cols, rows = np.divmod(key[new], len(model.row_names) + 1)
        model.entry_rows = rows - 1
        model.entry_vals = np.bincount(group, weights=vals, minlength=rows.size)

    def _raise_first_error(self):
        """Re-check the batch's lines one pair at a time, as they were
        read, and raise the first failure."""
        pos = 0
        for lineno, n in zip(self.linenos, self.lengths):
            parts = self.tokens[pos:pos + n]
            pos += n
            if _is_marker(parts[1]):
                raise MpsParseError(f"line {lineno}: integer markers are not supported")
            for i in range(1, n, 2):
                row = parts[i]
                _tofloat(parts[i + 1], lineno)
                if row not in self.row_index:
                    raise MpsParseError(f"line {lineno}: undeclared row {row!r}")
        raise AssertionError("bulk COLUMNS check failed on no line")


def _is_marker(token):
    return token.upper().strip("'") == "MARKER"


def _chunks(text):
    """``text`` in consecutive pieces of about ``_CHUNK_CHARS`` characters,
    each but the last ending just after a newline.  A newline ends a line
    whatever precedes or follows it, so the lines of the pieces are the
    lines of ``text``, as ``str.splitlines`` gives them."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def parse_mps(text):
    """Parse MPS text (fixed or free format) into an :class:`MpsModel`.

    Raises :class:`MpsParseError` on unsupported sections, out-of-order
    sections, undeclared names, unknown bound codes, integer markers, or
    numbers that are not finite (NaN only, for BOUNDS values).  The error
    raised is the first one in file order.

    The lines of ``text`` are split a chunk at a time and COLUMNS lines
    converted a batch at a time, so besides ``text`` and the model the
    parse holds one chunk's lines, one batch's tokens and 16 bytes per
    coefficient read so far.
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
    lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "*":
            continue
        if raw[0] not in " \t":
            if columns is not None:
                columns.finish()
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
                        model.objective_sense = _objective_sense(parts[1], lineno)
                        section = None
                    else:
                        pending_objsense = True
                elif key == "COLUMNS":
                    columns = _ColumnsSection(model)
                continue
            raise MpsParseError(f"line {lineno}: unsupported section {parts[0]!r}")

        if pending_objsense:
            model.objective_sense = _objective_sense(parts[0], lineno)
            pending_objsense = False
            continue

        if section == "COLUMNS":
            n = len(parts)
            if n & 1 and n > 1:
                columns.tokens.extend(parts)
                columns.lengths.append(n)
                columns.linenos.append(lineno)
                if len(columns.lengths) == _BATCH_LINES:
                    columns.convert()
                continue
            # errors on earlier lines come first
            columns.convert()
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
            # a set name alone, or pairs without a set name that do not start at a row
            if len(parts) < 2 or (len(parts) % 2 == 0 and parts[0] not in model.row_sense
                                  and parts[0] != model.objective_row):
                raise MpsParseError(f"line {lineno}: malformed {section} line")
            pairs = parts[1:] if len(parts) % 2 == 1 else parts
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
                col, value = parts[2], _tofloat(parts[3], lineno, infinite_ok=True)
            elif len(parts) < 2:
                raise MpsParseError(f"line {lineno}: malformed BOUNDS line")
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
        columns.finish()
    if not model.objective_row and (model.column_names or model.row_names):
        raise MpsParseError("no objective (N) row declared")
    return model


def _objective_sense(tok, lineno):
    """An OBJSENSE value, on the header line or the next: MIN, MAX,
    MINIMIZE or MAXIMIZE in any case, normalized to MIN or MAX."""
    sense = tok.upper()
    if sense not in ("MIN", "MAX", "MINIMIZE", "MAXIMIZE"):
        raise MpsParseError(f"line {lineno}: bad OBJSENSE value {tok!r}")
    return "MAX" if sense.startswith("MAX") else "MIN"


def _tofloat(tok, lineno, infinite_ok=False):
    """The number ``tok`` holds; a NaN, or an infinity unless
    ``infinite_ok``, is a bad numeric field too, and so is a token with a
    digit separator or a character outside ASCII, both of which Python's
    ``float`` would accept ("1_0", a fullwidth "１")."""
    try:
        value = (math.nan if "_" in tok or not tok.isascii()
                 else float(tok.replace("D", "E").replace("d", "e")))
    except ValueError:
        value = math.nan
    if math.isfinite(value) or (infinite_ok and not math.isnan(value)):
        return value
    raise MpsParseError(f"line {lineno}: bad numeric field {tok!r}")


def _bulk_float(tokens):
    """``float`` over a list of tokens, with D exponents, as one array;
    raises ValueError if any token is not a number or holds a digit
    separator or a character outside ASCII."""
    joined = " ".join(tokens)
    if "_" in joined or not joined.isascii():
        raise ValueError("digit separator or non-ASCII character in a numeric field")
    if "D" in joined or "d" in joined:
        # tokens hold no whitespace, so joining on a space and splitting
        # again returns them with only the exponent letters changed
        tokens = joined.replace("D", "E").replace("d", "e").split(" ")
    return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))


# ---------------------------------------------------------------------------
# Standard-form conversion
# ---------------------------------------------------------------------------


# VariableMap.kind codes, one per original column
SHIFTED, REFLECTED, SPLIT, FIXED = 0, 1, 2, 3


@dataclass
class VariableMap:
    """Recovers original-model variables from standard-form solutions.

    Transformations per original column j, held as arrays over the columns:
      * shifted:   x = l + x'          (finite lower bound)
      * reflected: x = u - x'          (lower -inf, finite upper)
      * split:     x = x+ - x-         (free variable)
      * fixed:     x = v               (FX; substituted out)
    ``kind[j]`` is one of SHIFTED, REFLECTED, SPLIT, FIXED; ``index[j]`` the
    standard column of x' (of x+, with x- the next one; -1 for a fixed
    column); ``value[j]`` the shift l, the upper bound u or the fixed value
    v (0 for a split column).
    Upper bounds become extra rows x' + s = u - l with a fresh slack.
    """

    column_names: list
    kind: np.ndarray
    index: np.ndarray
    value: np.ndarray
    objective_offset: float
    objective_sense: str

    def to_original(self, x_standard):
        x = np.asarray(x_standard, dtype=np.float64)
        out = self.value.copy()   # right for fixed columns
        sel = self.kind == SHIFTED
        out[sel] = self.value[sel] + x[self.index[sel]]
        sel = self.kind == REFLECTED
        out[sel] = self.value[sel] - x[self.index[sel]]
        sel = self.kind == SPLIT
        out[sel] = x[self.index[sel]] - x[self.index[sel] + 1]
        return out

    def original_objective(self, problem, x_standard):
        val = _dot(problem.c, x_standard) + self.objective_offset
        return -val if self.objective_sense == "MAX" else val


@np.errstate(over="ignore", invalid="ignore")
def to_standard_form(model):
    """Convert an :class:`MpsModel` to ``min c'x, Ax = b, x >= 0``.

    Returns ``(StandardFormLp, VariableMap)``.  Inequality rows get slack
    variables, free variables are split, finite bounds are shifted (and
    upper bounds slacked into extra rows).  RANGES R on a row with
    right-hand side r give [r - |R|, r] on an L row, [r, r + |R|] on a G
    row, and on an E row [r, r + |R|] when R >= 0 and [r - |R|, r] when
    R < 0.  A row with no nonzero entry whose interval excludes 0 makes
    the model infeasible; it is a ValueError that names the row.

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
    # no finite value lies in [lo, up]
    bad = np.flatnonzero((lo > up) | (lo == np.inf) | (up == -np.inf))
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
    # a row with no nonzero entry reads a'x = 0, which its interval must hold
    obj = model.entry_rows == OBJECTIVE_ROW
    occupied = np.zeros(m, dtype=bool)
    occupied[model.entry_rows[~obj & (model.entry_vals != 0.0)]] = True
    bad = np.flatnonzero(~occupied & ((row_lo > 0.0) | (row_up < 0.0)))
    if bad.size:
        i = bad[0]
        raise ValueError(f"row {model.row_names[i]!r} has no nonzero entry, so a'x = 0, "
                         f"outside its interval [{row_lo[i]}, {row_up[i]}]")

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

    col_fixed, col_free, col_reflected = fixed[:n], free[:n], reflected[:n]
    kind = np.select([col_fixed, col_free, col_reflected], [FIXED, SPLIT, REFLECTED], SHIFTED)
    value = np.where(col_reflected, up, np.where(col_free, 0.0, lo))

    A = SparseMatrix(m + k, n_main + k, rows_out, cols_out, vals_out)
    problem = StandardFormLp(c, A, b)
    vmap = VariableMap(
        column_names=list(names),
        kind=kind.astype(np.int8),
        index=np.where(col_fixed, -1, first[:n]),
        value=value,
        objective_offset=offset,
        objective_sense=model.objective_sense,
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
        if not self.sigmas or not all(0 < s < math.inf for s in self.sigmas):
            raise ValueError("sigmas must be positive and finite")


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


def generate(spec):
    """Build an instance from a generator spec.

    Returns ``(problem, optimum)`` where ``optimum`` is a SaddlePoint with
    zero KKT error, or None when no optimum is planted.
    """
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
