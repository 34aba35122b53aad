"""Loop-based MPS parser and standard-form conversion, kept as the reference
that the array-based ``restartlp.ingest`` is checked against.

``parse_mps`` walks the file one line and one (row, value) pair at a time and
records coefficients in a dict keyed by (row name, column name);
``to_standard_form`` builds the standard form one interim column at a time.
The package's versions must raise the same first error and produce a
bit-identical ``StandardFormLp`` and ``VariableMap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from restartlp import MpsParseError, SparseMatrix, StandardFormLp, VariableMap
from restartlp.ingest import FIXED, REFLECTED, SHIFTED, SPLIT

_SECTIONS = {"NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_BOUND_CODES = {"LO", "UP", "FX", "FR", "MI", "PL"}
_VALUED_BOUNDS = {"LO", "UP", "FX"}


@dataclass
class MpsModel:
    """Record of the sections of an MPS file, with coefficients in a dict
    keyed by (row name, column name) in order of first appearance."""

    name: str = ""
    objective_row: str = ""
    objective_sense: str = "MIN"
    row_names: list = field(default_factory=list)      # constraint rows, declared order
    row_sense: dict = field(default_factory=dict)      # row name -> 'E' | 'L' | 'G'
    column_names: list = field(default_factory=list)   # declared order
    entries: dict = field(default_factory=dict)        # (row, col) -> coefficient
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


def parse_mps(text):
    """Parse MPS text (fixed or free format) into an :class:`MpsModel`.

    Raises :class:`MpsParseError` on unsupported sections, out-of-order
    sections, undeclared names, unknown bound codes, or integer markers.
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
    known_cols = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        header = raw[:1] not in (" ", "\t")
        parts = raw.split()
        if header:
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
                continue
            raise MpsParseError(f"line {lineno}: unsupported section {parts[0]!r}")

        if pending_objsense:
            model.objective_sense = _objective_sense(parts[0], lineno)
            pending_objsense = False
            continue

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

        elif section == "COLUMNS":
            if len(parts) >= 3 and parts[1].upper().strip("'") == "MARKER":
                raise MpsParseError(f"line {lineno}: integer markers are not supported")
            col = parts[0]
            if len(parts) < 3 or len(parts) % 2 == 0:
                raise MpsParseError(f"line {lineno}: malformed COLUMNS line")
            if col not in known_cols:
                known_cols.add(col)
                model.column_names.append(col)
            for i in range(1, len(parts), 2):
                row, val = parts[i], _tofloat(parts[i + 1], lineno)
                if row != model.objective_row and row not in model.row_sense:
                    raise MpsParseError(f"line {lineno}: undeclared row {row!r}")
                key = (row, col)
                model.entries[key] = model.entries.get(key, 0.0) + val

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
    try:
        # a digit separator or a non-ASCII digit, which float would accept
        if "_" in tok or not tok.isascii():
            raise ValueError(tok)
        value = float(tok.replace("D", "E").replace("d", "e"))
    except ValueError:
        raise MpsParseError(f"line {lineno}: bad numeric field {tok!r}") from None
    if math.isnan(value) or (math.isinf(value) and not infinite_ok):
        raise MpsParseError(f"line {lineno}: bad numeric field {tok!r}")
    return value


# The transform of one original column, one record type per VariableMap kind
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


def to_standard_form(model):
    """Convert an :class:`MpsModel` to ``min c'x, Ax = b, x >= 0``.

    Returns ``(StandardFormLp, VariableMap)``.  Inequality rows get slack
    variables, free variables are split, finite bounds are shifted (and
    upper bounds slacked into extra rows).  RANGES R on an E row with
    right-hand side r give [r, r + |R|] when R >= 0 and [r - |R|, r] when
    R < 0.  A row with no nonzero entry whose interval excludes 0 is a
    ValueError that names the row.
    """
    lo, up = model.resolved_bounds()
    for col in model.column_names:
        if lo[col] > up[col]:
            raise ValueError(f"contradictory bounds on column {col!r}: "
                             f"[{lo[col]}, {up[col]}]")

    # Row intervals lo_r <= a'x <= up_r.
    row_lo, row_up = {}, {}
    for row in model.row_names:
        sense = model.row_sense[row]
        r = model.rhs.get(row, 0.0)
        rng = model.ranges.get(row)
        if sense == "E":
            if rng is None:
                row_lo[row], row_up[row] = r, r
            elif rng < 0:
                row_lo[row], row_up[row] = r - abs(rng), r
            else:
                row_lo[row], row_up[row] = r, r + abs(rng)
        elif sense == "L":
            row_up[row] = r
            row_lo[row] = r - abs(rng) if rng is not None else -math.inf
        else:  # G
            row_lo[row] = r
            row_up[row] = r + abs(rng) if rng is not None else math.inf
    if model.objective_row in model.ranges:
        raise ValueError("RANGES on the objective row")
    # a row with no nonzero entry reads a'x = 0, which its interval must hold
    occupied = {row for (row, _col), val in model.entries.items() if val != 0.0}
    for row in model.row_names:
        if row not in occupied and not row_lo[row] <= 0.0 <= row_up[row]:
            raise ValueError(f"row {row!r} has no nonzero entry, so a'x = 0, "
                             f"outside its interval [{row_lo[row]}, {row_up[row]}]")

    # Interim columns: original columns plus row slacks, each with bounds.
    # Each interim column is (name, coeffs as list of (row_index, value),
    # objective coefficient, lower, upper).
    sense_flip = -1.0 if model.objective_sense == "MAX" else 1.0
    row_index = {name: i for i, name in enumerate(model.row_names)}
    n_rows = len(model.row_names)
    b = np.zeros(n_rows)

    col_coeffs = {c: [] for c in model.column_names}
    col_obj = {c: 0.0 for c in model.column_names}
    for (row, col), val in model.entries.items():
        if row == model.objective_row:
            col_obj[col] += sense_flip * val
        else:
            col_coeffs[col].append((row_index[row], val))

    interim = []
    for col in model.column_names:
        interim.append((col, col_coeffs[col], col_obj[col], lo[col], up[col]))

    # Equalize rows: a'x (+/- slack) = rhs.  Ranged rows get a bounded slack.
    for row in model.row_names:
        i = row_index[row]
        rlo, rup = row_lo[row], row_up[row]
        if rlo == rup:
            b[i] = rup
        elif math.isinf(rlo):            # a'x <= rup
            b[i] = rup
            interim.append((f"_slack_{row}", [(i, 1.0)], 0.0, 0.0, math.inf))
        elif math.isinf(rup):            # a'x >= rlo
            b[i] = rlo
            interim.append((f"_slack_{row}", [(i, -1.0)], 0.0, 0.0, math.inf))
        else:                            # ranged: a'x + s = rup, 0 <= s <= rup - rlo
            b[i] = rup
            interim.append((f"_slack_{row}", [(i, 1.0)], 0.0, 0.0, rup - rlo))

    # Variable pass: everything becomes x' >= 0; upper bounds spawn rows.
    rows_out, cols_out, vals_out = [], [], []
    c_out = []
    extra_rows = []      # (std column index, bound value) for x' + t = value
    mapping = {}
    # an RHS entry on the objective row is the negated objective constant
    offset = -sense_flip * model.rhs.get(model.objective_row, 0.0)
    next_col = 0

    def emit(coeffs, scale, cval):
        nonlocal next_col
        for (ri, v) in coeffs:
            rows_out.append(ri)
            cols_out.append(next_col)
            vals_out.append(scale * v)
        c_out.append(cval)
        next_col += 1
        return next_col - 1

    for name, coeffs, cval, l, u in interim:
        original = not name.startswith("_slack_")
        if l == u:                      # fixed: substitute out
            for (ri, v) in coeffs:
                b[ri] -= v * l
            offset += cval * l
            if original:
                mapping[name] = _Fixed(l)
            continue
        if math.isinf(l) and math.isinf(u):      # free: split
            p = emit(coeffs, 1.0, cval)
            q = emit(coeffs, -1.0, -cval)
            if original:
                mapping[name] = _Split(p, q)
            continue
        if not math.isinf(l):                    # shift to zero lower bound
            if l != 0.0:
                for (ri, v) in coeffs:
                    b[ri] -= v * l
                offset += cval * l
            j = emit(coeffs, 1.0, cval)
            if original:
                mapping[name] = _Shifted(j, l)
            if not math.isinf(u):
                extra_rows.append((j, u - l))
            continue
        # l = -inf, finite u: reflect x = u - x'
        for (ri, v) in coeffs:
            b[ri] -= v * u
        offset += cval * u
        j = emit(coeffs, -1.0, -cval)
        if original:
            mapping[name] = _Reflected(j, u)

    # bound rows x'_j + t = value
    b_extra = []
    for j, value in extra_rows:
        i = n_rows + len(b_extra)
        rows_out.append(i)
        cols_out.append(j)
        vals_out.append(1.0)
        emit([(i, 1.0)], 1.0, 0.0)
        b_extra.append(value)

    m_total = n_rows + len(b_extra)
    A = SparseMatrix(m_total, next_col, rows_out, cols_out, vals_out)
    problem = StandardFormLp(np.array(c_out), A, np.concatenate([b, b_extra]) if b_extra else b)
    kind, index, value = _variable_arrays([mapping[name] for name in model.column_names])
    vmap = VariableMap(
        column_names=list(model.column_names),
        kind=kind,
        index=index,
        value=value,
        objective_offset=offset,
        objective_sense=model.objective_sense,
    )
    return problem, vmap


def _variable_arrays(records):
    """The per-column (kind, index, value) arrays of a VariableMap, from one
    transform record per original column."""
    kind, index, value = [], [], []
    for rec in records:
        if isinstance(rec, _Shifted):
            kind.append(SHIFTED), index.append(rec.index), value.append(rec.shift)
        elif isinstance(rec, _Reflected):
            kind.append(REFLECTED), index.append(rec.index), value.append(rec.upper)
        elif isinstance(rec, _Split):
            assert rec.neg_index == rec.pos_index + 1
            kind.append(SPLIT), index.append(rec.pos_index), value.append(0.0)
        else:
            kind.append(FIXED), index.append(-1), value.append(rec.value)
    return (np.array(kind, dtype=np.int8), np.array(index, dtype=np.int64),
            np.array(value, dtype=np.float64))
