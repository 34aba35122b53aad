import math
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from scipy.optimize import linprog

import mps_reference
from restartlp import (
    DiagonalBilinear,
    MpsParseError,
    RandomLpKnownOptimum,
    SaddlePoint,
    generate,
    parse_mps,
    residuals,
    to_standard_form,
)
from restartlp import ingest

from conftest import brute_force_lp
from oracles import gradient_field


def coefficient(model, row, col):
    """The coefficient of (row, col) in the model's entry arrays, 0.0 when
    the pair has no entry."""
    i = -1 if row == model.objective_row else model.row_names.index(row)
    j = model.column_names.index(col)
    hit = np.flatnonzero((model.entry_rows == i) & (model.entry_cols == j))
    assert hit.size <= 1
    return float(model.entry_vals[hit[0]]) if hit.size else 0.0


TWO_VAR_FIXTURE = """\
NAME          TWOVAR
ROWS
 N  COST
 E  BAL
COLUMNS
    X1        COST      1.0        BAL       1.0
    X2        COST      1.0        BAL       1.0
RHS
    RHS1      BAL       1.0
ENDATA
"""

FREE_VAR_FIXTURE = """\
NAME          FREEVAR
ROWS
 N  COST
 E  BAL
COLUMNS
    X1        COST      2.0        BAL       1.0
    X2        COST      1.0        BAL       1.0
BOUNDS
 FR BND       X2
RHS
    RHS1      BAL       3.0
ENDATA
"""

G_ROW_FIXTURE = """\
NAME          GROW
ROWS
 N  COST
 G  LIM
COLUMNS
    X1        COST      1.0        LIM       1.0
RHS
    RHS1      LIM       2.0
ENDATA
"""

BOUNDED_FIXTURE = """\
NAME          BOUNDED
ROWS
 N  COST
 E  BAL
COLUMNS
    X1        COST      1.0        BAL       1.0
    X2        BAL       1.0
RHS
    RHS1      BAL       4.0
BOUNDS
 LO BND       X1        1.0
 UP BND       X1        2.0
ENDATA
"""

RANGED_FIXTURE = """\
NAME          RANGED
ROWS
 N  COST
 L  CAP
COLUMNS
    X1        COST      -1.0       CAP       1.0
RHS
    RHS1      CAP       5.0
RANGES
    RNG       CAP       2.0
ENDATA
"""

REFLECTED_FIXTURE = """\
NAME          REFLECT
ROWS
 N  COST
 E  BAL
COLUMNS
    X1        COST      -1.0       BAL       1.0
    X2        BAL       1.0
RHS
    RHS1      BAL       10.0
BOUNDS
 MI BND       X1
 UP BND       X1        3.0
ENDATA
"""

FIXED_FIXTURE = """\
NAME          FIXED
ROWS
 N  COST
 E  BAL
COLUMNS
    X1        COST      1.0        BAL       1.0
    X2        COST      1.0        BAL       1.0
RHS
    RHS1      BAL       4.0
BOUNDS
 FX BND       X2        1.0
ENDATA
"""

MAXIMIZE_FIXTURE = """\
NAME          MAXI
OBJSENSE
    MAX
ROWS
 N  PROFIT
 L  CAP
COLUMNS
    X1        PROFIT    1.0        CAP       1.0
RHS
    RHS1      CAP       2.0
ENDATA
"""

EMPTY_COLUMNS_FIXTURE = """\
NAME          EMPTY
ROWS
 N  COST
COLUMNS
RHS
ENDATA
"""

E_RANGE_FIXTURE = """\
NAME          ERANGE
ROWS
 N  COST
 E  BAL
COLUMNS
    X1        COST      -1.0       BAL       1.0
    X2        COST      -2.0       BAL       1.0
RHS
    RHS1      BAL       4.0
RANGES
    RNG       BAL       {spread}
BOUNDS
 UP BND       X1        3.0
 UP BND       X2        10.0
ENDATA
"""

FIXTURES = [TWO_VAR_FIXTURE, FREE_VAR_FIXTURE, G_ROW_FIXTURE, BOUNDED_FIXTURE,
            RANGED_FIXTURE, REFLECTED_FIXTURE, FIXED_FIXTURE, MAXIMIZE_FIXTURE,
            EMPTY_COLUMNS_FIXTURE, E_RANGE_FIXTURE.format(spread=2.0),
            E_RANGE_FIXTURE.format(spread=-2.0)]


class TestParse:
    def test_two_var_fixture(self):
        model = parse_mps(TWO_VAR_FIXTURE)
        assert model.objective_row == "COST"
        assert model.row_names == ["BAL"]
        assert model.row_sense["BAL"] == "E"
        assert model.column_names == ["X1", "X2"]
        assert model.rhs["BAL"] == 1.0
        assert coefficient(model, "BAL", "X1") == 1.0

    def test_free_bound_recorded(self):
        model = parse_mps(FREE_VAR_FIXTURE)
        assert ("FR", "X2", None) in model.bound_records
        lo, up = model.resolved_bounds()
        assert lo["X2"] == -math.inf and up["X2"] == math.inf

    def test_empty_columns(self):
        model = parse_mps(EMPTY_COLUMNS_FIXTURE)
        assert model.column_names == []
        assert model.row_names == []

    def test_duplicate_entries_summed(self):
        text = TWO_VAR_FIXTURE.replace(
            "    X2        COST      1.0        BAL       1.0",
            "    X2        COST      1.0        BAL       0.25\n"
            "    X2        BAL       0.75")
        model = parse_mps(text)
        assert coefficient(model, "BAL", "X2") == 1.0

    def test_section_order_enforced(self):
        bad = "NAME T\nCOLUMNS\n    X1 COST 1.0\nROWS\n N COST\nENDATA\n"
        with pytest.raises(MpsParseError, match="out of order|undeclared"):
            parse_mps(bad)

    def test_unknown_bound_code(self):
        bad = TWO_VAR_FIXTURE.replace("ENDATA", "BOUNDS\n BV BND X1 1\nENDATA")
        with pytest.raises(MpsParseError, match="unknown bound code"):
            parse_mps(bad)

    def test_second_objective_row_rejected(self):
        bad = TWO_VAR_FIXTURE.replace(" E  BAL", " E  BAL\n N  COST2")
        with pytest.raises(MpsParseError, match="one objective"):
            parse_mps(bad)

    def test_undeclared_row_rejected(self):
        bad = TWO_VAR_FIXTURE.replace("BAL       1.0\nRHS", "BAD       1.0\nRHS")
        with pytest.raises(MpsParseError, match="undeclared"):
            parse_mps(bad)

    def test_unsupported_section(self):
        bad = TWO_VAR_FIXTURE.replace("ENDATA", "SOS\n S1 s1 X1 1\nENDATA")
        with pytest.raises(MpsParseError, match="unsupported"):
            parse_mps(bad)

    def test_integer_marker_rejected(self):
        bad = TWO_VAR_FIXTURE.replace(
            "COLUMNS\n", "COLUMNS\n    M1        'MARKER'   'INTORG'\n")
        with pytest.raises(MpsParseError, match="integer"):
            parse_mps(bad)

    def test_infinite_bounds_kept(self):
        text = TWO_VAR_FIXTURE.replace(
            "ENDATA", "BOUNDS\n UP BND X1 inf\n LO BND X2 -1D999\nENDATA")
        model = parse_mps(text)
        assert model.bound_records == [("UP", "X1", math.inf), ("LO", "X2", -math.inf)]

    def test_inline_objsense_equals_the_next_line_form(self):
        inline = MAXIMIZE_FIXTURE.replace("OBJSENSE\n    MAX\n", "OBJSENSE    MAXIMIZE\n")
        assert inline != MAXIMIZE_FIXTURE
        assert outcome(inline) == outcome(MAXIMIZE_FIXTURE)
        for parse, convert in ((parse_mps, to_standard_form),
                               (mps_reference.parse_mps, mps_reference.to_standard_form)):
            model = parse(inline)
            assert model.objective_sense == "MAX"
            problem, _ = convert(model)
            want, _ = convert(parse(MAXIMIZE_FIXTURE))
            assert_bits_equal(problem.c, want.c)
            assert problem.c[0] == -1.0

    def test_ranges_on_objective_rejected(self):
        bad = TWO_VAR_FIXTURE.replace(
            "RHS\n", "RANGES\n    RNG       COST      1.0\nRHS\n")
        with pytest.raises(MpsParseError, match="RANGES"):
            parse_mps(bad)


class TestStandardForm:
    def test_two_var_conversion(self):
        problem, vmap = to_standard_form(parse_mps(TWO_VAR_FIXTURE))
        assert problem.n == 2 and problem.m == 1
        assert np.array_equal(problem.c, [1.0, 1.0])
        assert np.array_equal(problem.b, [1.0])
        assert np.array_equal(problem.A.to_dense(), [[1.0, 1.0]])

    def test_g_row_gets_slack(self):
        problem, _ = to_standard_form(parse_mps(G_ROW_FIXTURE))
        assert problem.n == 2  # x1 plus surplus
        dense = problem.A.to_dense()
        assert np.array_equal(dense, [[1.0, -1.0]])
        assert np.array_equal(problem.b, [2.0])

    def test_free_split_adds_column(self):
        problem, vmap = to_standard_form(parse_mps(FREE_VAR_FIXTURE))
        assert problem.n == 3  # x1 plus split pair
        assert np.array_equal(problem.c, [2.0, 1.0, -1.0])

    def test_roundtrip_feasibility(self, rng):
        fixtures = [TWO_VAR_FIXTURE, FREE_VAR_FIXTURE, G_ROW_FIXTURE,
                    BOUNDED_FIXTURE, RANGED_FIXTURE, REFLECTED_FIXTURE,
                    FIXED_FIXTURE, MAXIMIZE_FIXTURE]
        for text in fixtures:
            model = parse_mps(text)
            problem, vmap = to_standard_form(model)
            lo, up = model.resolved_bounds()
            # random standard-form-feasible points map to original-feasible
            dense = problem.A.to_dense()
            for _ in range(20):
                x = np.abs(rng.standard_normal(problem.n))
                # project onto Ax = b (dense pseudo-inverse; fine at this size)
                if problem.m:
                    x = x - np.linalg.pinv(dense) @ (dense @ x - problem.b)
                if problem.n and np.min(x) < 0:
                    continue  # projection left the cone; skip this draw
                orig = vmap.to_original(x)
                for j, name in enumerate(model.column_names):
                    assert orig[j] >= lo[name] - 1e-12
                    assert orig[j] <= up[name] + 1e-12
                for row in model.row_names:
                    act = sum(coefficient(model, row, cname) * orig[j]
                              for j, cname in enumerate(model.column_names))
                    sense = model.row_sense[row]
                    r = model.rhs.get(row, 0.0)
                    if sense == "E":
                        assert abs(act - r) <= 1e-9

    @pytest.mark.parametrize("text,expected", [
        (TWO_VAR_FIXTURE, 1.0),
        (FREE_VAR_FIXTURE, 3.0),
        (G_ROW_FIXTURE, 2.0),
        (BOUNDED_FIXTURE, 1.0),
        (RANGED_FIXTURE, -5.0),
        (REFLECTED_FIXTURE, -3.0),
        (FIXED_FIXTURE, 4.0),
        (MAXIMIZE_FIXTURE, 2.0),
    ])
    def test_optimum_matches_reference(self, text, expected):
        model = parse_mps(text)
        problem, vmap = to_standard_form(model)
        val, x = brute_force_lp(problem)
        assert vmap.original_objective(problem, x) == pytest.approx(expected, abs=1e-8)

    def test_contradictory_fx(self):
        bad = BOUNDED_FIXTURE.replace(
            " UP BND       X1        2.0",
            " UP BND       X1        0.5")
        with pytest.raises(ValueError, match="contradictory"):
            to_standard_form(parse_mps(bad))

    @pytest.mark.parametrize("bounds,interval", [
        (" LO BND       X1        inf", "[inf, inf]"),
        (" FX BND       X1        inf", "[inf, inf]"),
        (" MI BND       X1\n UP BND       X1        -inf", "[-inf, -inf]"),
        (" UP BND       X1        -1D999", "[0.0, -inf]"),
    ], ids=["LO inf", "FX inf", "MI then UP -inf", "UP -inf"])
    def test_bounds_with_no_finite_value(self, bounds, interval):
        # an infinite fixed value would put an infinity into b
        text = TWO_VAR_FIXTURE.replace("ENDATA", f"BOUNDS\n{bounds}\nENDATA")
        with pytest.raises(ValueError) as err:
            to_standard_form(parse_mps(text))
        assert str(err.value) == f"contradictory bounds on column 'X1': {interval}"

    def test_range_on_e_row_matches_highs(self):
        # min -x1 - 2 x2, x1 + x2 in [4, 6] for R = 2, [2, 4] for R = -2 and
        # {4} for R = 0, x1 <= 3, x2 <= 10
        for spread, expected in [(2.0, -12.0), (-2.0, -8.0), (0.0, -8.0)]:
            model = parse_mps(E_RANGE_FIXTURE.format(spread=spread))
            problem, vmap = to_standard_form(model)
            _, x = brute_force_lp(problem)
            lo, hi = (4.0, 4.0 + abs(spread)) if spread >= 0 else (4.0 - abs(spread), 4.0)
            ref = linprog([-1.0, -2.0], A_ub=[[1.0, 1.0], [-1.0, -1.0]], b_ub=[hi, -lo],
                          bounds=[(0.0, 3.0), (0.0, 10.0)], method="highs")
            assert ref.status == 0
            assert ref.fun == pytest.approx(expected, abs=1e-9)
            assert vmap.original_objective(problem, x) == pytest.approx(ref.fun, abs=1e-8)

    @staticmethod
    def _with_empty_row(sense, rhs, spread=None):
        """TWO_VAR_FIXTURE with a row EMPTY of ``sense`` that has only a
        zero entry, right-hand side ``rhs`` and, if given, RANGES ``spread``."""
        text = (TWO_VAR_FIXTURE
                .replace(" E  BAL", f" E  BAL\n {sense}  EMPTY")
                .replace("    X2        COST      1.0        BAL       1.0",
                         "    X2        COST      1.0        BAL       1.0\n"
                         "    X2        EMPTY     0.0")
                .replace("    RHS1      BAL       1.0", f"    RHS1      BAL       1.0\n"
                                                        f"    RHS1      EMPTY     {rhs}"))
        if spread is not None:
            text = text.replace("ENDATA", f"RANGES\n    RNG       EMPTY     {spread}\nENDATA")
        return text

    @pytest.mark.parametrize("sense,rhs,spread,interval", [
        ("E", 1.0, None, "[1.0, 1.0]"),
        ("L", -1.0, None, "[-inf, -1.0]"),
        ("G", 1.0, None, "[1.0, inf]"),
        ("E", 1.0, 2.0, "[1.0, 3.0]"),
        ("L", -1.0, 0.5, "[-1.5, -1.0]"),
    ], ids=["E", "L", "G", "ranged E", "ranged L"])
    def test_empty_row_whose_interval_excludes_zero(self, sense, rhs, spread, interval):
        # a'x = 0 on a row with no nonzero entry: the model is infeasible
        with pytest.raises(ValueError) as err:
            to_standard_form(parse_mps(self._with_empty_row(sense, rhs, spread)))
        assert str(err.value) == ("row 'EMPTY' has no nonzero entry, so a'x = 0, "
                                  f"outside its interval {interval}")

    @pytest.mark.parametrize("sense,rhs,spread", [
        ("E", 0.0, None), ("L", 0.0, None), ("G", 0.0, None), ("L", 1.0, None),
        ("G", -1.0, None), ("E", -1.0, 2.0)],
        ids=["E 0", "L 0", "G 0", "L 1", "G -1", "ranged E"])
    def test_empty_row_whose_interval_holds_zero(self, sense, rhs, spread):
        problem, _ = to_standard_form(parse_mps(self._with_empty_row(sense, rhs, spread)))
        # a ranged row's bounded slack adds a bound row
        assert problem.m == (2 if spread is None else 3)


class TestGenerators:
    def test_diagonal_bilinear(self):
        problem, opt = generate(DiagonalBilinear((1.0,)))
        assert not problem.nonneg
        assert np.array_equal(opt.as_vector(), [0.0, 0.0])
        # interaction realizes L(x, y) = +y' diag(sigma) x: F = (y, -x) here
        z = SaddlePoint(np.array([2.0]), np.array([3.0]))
        assert np.allclose(gradient_field(problem, z), [3.0, -2.0])

    def test_diagonal_requires_positive(self):
        with pytest.raises(ValueError):
            DiagonalBilinear((1.0, 0.0))
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                DiagonalBilinear((sigma, 1.0))

    def test_two_dim_toy(self):
        problem, opt = generate(DiagonalBilinear((1.0,)))
        assert problem.n == 1 and problem.m == 1
        assert np.array_equal(opt.as_vector(), [0.0, 0.0])

    def test_random_known_optimum_seed7(self):
        problem, opt = generate(RandomLpKnownOptimum(5, 10, 0.5, 7))
        assert residuals(problem, opt).kkt_error <= 1e-12

    def test_random_known_optimum_many_seeds(self):
        for seed in range(100):
            problem, opt = generate(RandomLpKnownOptimum(6, 11, 0.4, seed))
            assert residuals(problem, opt).kkt_error <= 1e-12

    def test_bad_specs(self):
        with pytest.raises(ValueError):
            RandomLpKnownOptimum(0, 5, 0.5, 1)
        with pytest.raises(ValueError):
            RandomLpKnownOptimum(5, 5, 0.0, 1)
        with pytest.raises(ValueError):
            generate(object())


def random_mps_text(seed, m=12, n=16):
    """Seeded MPS text with E/L/G rows, RANGES on every row sense (positive,
    negative and zero), all six bound codes, OBJSENSE MAX or MIN, an RHS on
    the objective row, repeated (row, column) pairs, a column split over two
    runs of lines, D exponents, and 3-token and 5-token COLUMNS lines."""
    rng = np.random.default_rng(seed)

    def num(v):
        style = int(rng.integers(5))
        if style == 0:
            return repr(float(v))
        if style == 1:
            return f"{v:.6E}".replace("E", "D")
        if style == 2:
            return f"{v:.4e}".replace("e", "d")
        if style == 3:
            return "-0.0" if rng.random() < 0.5 else "0.0"
        return f"{v:.3f}"

    rows = [f"R{i}" for i in range(m)]
    out = ["NAME          RANDOM", "OBJSENSE", "    MAX" if seed % 2 else "    MIN",
           "ROWS", " N  OBJ"]
    out += [f" {sense}  {row}" for sense, row in zip(rng.choice(list("ELG"), m), rows)]
    out.append("COLUMNS")
    later = []
    for j in range(n):
        pairs = [("OBJ", num(rng.standard_normal()))] if rng.random() < 0.9 else []
        pairs += [(rows[i], num(rng.standard_normal()))
                  for i in rng.choice(m, int(rng.integers(1, 5)), replace=False)]
        for _ in range(int(rng.integers(0, 3))):          # repeated pairs
            pairs.insert(int(rng.integers(len(pairs) + 1)),
                         (pairs[int(rng.integers(len(pairs)))][0], num(rng.standard_normal())))
        lines = []
        while pairs:
            take = 2 if len(pairs) > 1 and rng.random() < 0.6 else 1
            chunk, pairs = pairs[:take], pairs[take:]
            lines.append(f"    X{j}  " + "  ".join(f"{r}  {v}" for r, v in chunk))
        if j == 1 and len(lines) > 1:                      # second run after the rest
            lines, tail = lines[:1], lines[1:]
            later += tail
        out += lines
    out += later
    out.append("RHS")
    out += [f"    RHS  {row}  {num(rng.standard_normal())}" for row in rows if rng.random() < 0.7]
    out.append(f"    RHS  OBJ  {num(rng.standard_normal())}")
    out.append("RANGES")
    out += [f"    RNG  {row}  {num(rng.choice([-1.0, 0.0, 1.0]) * rng.uniform(0.5, 2.0))}"
            for row in rows if rng.random() < 0.5]
    out.append("BOUNDS")
    for j in range(n):
        lo, width = rng.uniform(-2.0, 1.0), rng.uniform(0.5, 3.0)
        kind = int(rng.integers(9))
        if kind == 1:
            out.append(f" LO BND  X{j}  {num(lo)}")
        elif kind == 2:
            out.append(f" UP BND  X{j}  {num(width)}")
        elif kind == 3:
            out += [f" LO BND  X{j}  {lo!r}", f" UP BND  X{j}  {lo + width!r}"]
        elif kind == 4:
            out.append(f" FX BND  X{j}  {num(lo)}")
        elif kind == 5:
            out.append(f" FR BND  X{j}")
        elif kind == 6:
            out += [f" MI BND  X{j}", f" UP BND  X{j}  {num(lo)}"]
        elif kind == 7:
            out += [f" UP BND  X{j}  {num(width)}", f" PL BND  X{j}"]
        elif kind == 8:
            out.append(f" MI BND  X{j}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestReferenceEquivalence:
    """The array-based parser and conversion against the loop-based ones in
    ``mps_reference``: same model data, bit-identical standard form."""

    TEXTS = FIXTURES + [random_mps_text(seed) for seed in range(40)]

    @pytest.mark.parametrize("index", range(len(TEXTS)))
    def test_model_and_standard_form(self, index):
        text = self.TEXTS[index]
        model, ref = parse_mps(text), mps_reference.parse_mps(text)
        for name in ("name", "objective_row", "objective_sense", "row_names",
                     "row_sense", "column_names", "rhs", "ranges", "bound_records"):
            assert getattr(model, name) == getattr(ref, name), name
        row_at = {row: i for i, row in enumerate(ref.row_names)}
        row_at[ref.objective_row] = -1
        col_at = {col: j for j, col in enumerate(ref.column_names)}
        expect = sorted((col_at[c], row_at[r], v) for (r, c), v in ref.entries.items())
        assert_bits_equal(model.entry_cols, np.array([e[0] for e in expect], dtype=np.int64))
        assert_bits_equal(model.entry_rows, np.array([e[1] for e in expect], dtype=np.int64))
        assert_bits_equal(model.entry_vals, np.array([e[2] for e in expect], dtype=np.float64))

        try:
            ref_problem, ref_vmap = mps_reference.to_standard_form(ref)
        except ValueError as exc:
            # an empty row whose interval excludes 0: both reject it alike
            with pytest.raises(ValueError) as got:
                to_standard_form(model)
            assert str(got.value) == str(exc)
            return
        problem, vmap = to_standard_form(model)
        assert problem.A.shape == ref_problem.A.shape
        for name in ("rows", "cols", "vals"):
            assert_bits_equal(getattr(problem.A, name), getattr(ref_problem.A, name))
        assert_bits_equal(problem.b, ref_problem.b)
        assert_bits_equal(problem.c, ref_problem.c)
        assert_bits_equal(vmap.objective_offset, ref_vmap.objective_offset)
        for name in ("kind", "index", "value"):
            assert_bits_equal(getattr(vmap, name), getattr(ref_vmap, name))
        assert vmap.column_names == ref_vmap.column_names

    def test_random_texts_cover_every_feature(self):
        texts = "".join(self.TEXTS)
        for code in ("LO", "UP", "FX", "FR", "MI", "PL"):
            assert f" {code} BND" in texts
        for token in ("D", "d", "    MAX", " E  ", " L  ", " G  ", "RANGES"):
            assert token in texts
        repeated = negative_e_range = False
        token_counts = set()
        rejected = 0
        for text in self.TEXTS:
            ref = mps_reference.parse_mps(text)
            try:
                mps_reference.to_standard_form(ref)
            except ValueError:
                rejected += 1
            columns = text.split("COLUMNS\n")[1].split("RHS\n")[0].splitlines()
            token_counts |= {len(line.split()) for line in columns}
            pairs = sum(len(line.split()) // 2 for line in columns)
            repeated |= pairs > len(ref.entries)
            negative_e_range |= any(ref.ranges.get(r, 0.0) < 0 and ref.row_sense[r] == "E"
                                    for r in ref.row_names)
        assert repeated and negative_e_range
        assert {3, 5} <= token_counts
        # some texts hold an empty row whose interval excludes 0, most do not
        assert 0 < rejected < len(self.TEXTS) // 2


BAD_COLUMNS = {
    "undeclared row": "    X2        COST      1.0        BAD       1.0",
    "bad number": "    X2        COST      1.0        BAL       1.x",
    "marker": "    M1        'MARKER'                 'INTORG'",
    "undeclared row on a 7-token line": "    X2  COST  1.0  BAL  1.0  NOPE  2.0",
}


X2_LINE = "    X2        COST      1.0        BAL       1.0"

# (replaced text, replacement, first error) on TWO_VAR_FIXTURE, whose X1 and
# X2 lines are lines 6 and 7 and whose RHS entry is line 9
NON_FINITE = {
    "nan in COLUMNS": (X2_LINE, X2_LINE[:-3] + "nan", "line 7: bad numeric field 'nan'"),
    "-inf in COLUMNS": (X2_LINE, X2_LINE[:-3] + "-inf", "line 7: bad numeric field '-inf'"),
    "Infinity on the objective": ("X2        COST      1.0", "X2        COST      Infinity",
                                  "line 7: bad numeric field 'Infinity'"),
    "overflow in COLUMNS": (X2_LINE, X2_LINE[:-3] + "1D999", "line 7: bad numeric field '1D999'"),
    "nan before an undeclared row": (
        "BAL       1.0\n    X2        COST      1.0        BAL",
        "BAL       NaN\n    X2        COST      1.0        BAD",
        "line 6: bad numeric field 'NaN'"),
    "inf with an undeclared row in one pair": (X2_LINE, "    X2        NOPE      inf",
                                               "line 7: bad numeric field 'inf'"),
    "nan in RHS": ("RHS1      BAL       1.0", "RHS1      BAL       nan",
                   "line 9: bad numeric field 'nan'"),
    "inf in RHS": ("RHS1      BAL       1.0", "RHS1      BAL       +inf",
                   "line 9: bad numeric field '+inf'"),
    "-inf in RANGES": ("ENDATA", "RANGES\n    RNG       BAL       -inf\nENDATA",
                       "line 11: bad numeric field '-inf'"),
    "nan in BOUNDS": ("ENDATA", "BOUNDS\n UP BND       X1        nan\nENDATA",
                      "line 11: bad numeric field 'nan'"),
}


# (replaced text, replacement, first error) on TWO_VAR_FIXTURE: Python's
# float reads "1_0" as 10, an MPS reader must not
DIGIT_SEPARATORS = {
    "in COLUMNS": (X2_LINE, X2_LINE[:-3] + "1_0", "line 7: bad numeric field '1_0'"),
    "on the objective": ("X2        COST      1.0", "X2        COST      1_000.0",
                         "line 7: bad numeric field '1_000.0'"),
    "in an exponent": (X2_LINE, X2_LINE[:-3] + "1D1_0", "line 7: bad numeric field '1D1_0'"),
    "before an undeclared row": (
        "BAL       1.0\n    X2        COST      1.0        BAL",
        "BAL       1_0\n    X2        COST      1.0        BAD",
        "line 6: bad numeric field '1_0'"),
    "in RHS": ("RHS1      BAL       1.0", "RHS1      BAL       1_0",
               "line 9: bad numeric field '1_0'"),
    "in RANGES": ("ENDATA", "RANGES\n    RNG       BAL       0_5\nENDATA",
                  "line 11: bad numeric field '0_5'"),
    "in BOUNDS": ("ENDATA", "BOUNDS\n UP BND       X1        2_0\nENDATA",
                  "line 11: bad numeric field '2_0'"),
}

# Python's float reads any Unicode decimal digit: a fullwidth one (U+FF11),
# an Arabic-Indic one (U+0663) and a Devanagari one (U+0968)
NON_ASCII_DIGITS = {
    "in COLUMNS": (X2_LINE, X2_LINE[:-3] + "\uff11.0", "line 7: bad numeric field '\uff11.0'"),
    "on the objective": ("X2        COST      1.0", "X2        COST      \u0663",
                         "line 7: bad numeric field '\u0663'"),
    "before an undeclared row": (
        "BAL       1.0\n    X2        COST      1.0        BAL",
        "BAL       \uff11.0\n    X2        COST      1.0        BAD",
        "line 6: bad numeric field '\uff11.0'"),
    "in RHS": ("RHS1      BAL       1.0", "RHS1      BAL       \u0663",
               "line 9: bad numeric field '\u0663'"),
    "in RANGES": ("ENDATA", "RANGES\n    RNG       BAL       0.\u0968\nENDATA",
                  "line 11: bad numeric field '0.\u0968'"),
    "in BOUNDS": ("ENDATA", "BOUNDS\n UP BND       X1        \uff12\nENDATA",
                  "line 11: bad numeric field '\uff12'"),
}


def with_columns_line(text, k, edit):
    """``text`` with ``edit`` applied to the tokens of its k-th COLUMNS
    line (from 0); returns the text and that line's number."""
    lines = text.split("\n")
    at = lines.index("COLUMNS") + 1 + k
    lines[at] = "    " + "  ".join(edit(lines[at].split()))
    return "\n".join(lines), at + 1


def set_last(token):
    return lambda parts: parts[:-1] + [token]


class TestFirstError:
    """The array-based parser raises the reference parser's first error,
    with the same text and line number."""

    @staticmethod
    def both(text):
        with pytest.raises(MpsParseError) as ref:
            mps_reference.parse_mps(text)
        with pytest.raises(MpsParseError) as new:
            parse_mps(text)
        assert str(new.value) == str(ref.value)
        return str(new.value)

    def test_bad_inline_objsense(self):
        text = MAXIMIZE_FIXTURE.replace("OBJSENSE\n    MAX\n", "OBJSENSE    FOO\n")
        assert self.both(text) == "line 2: bad OBJSENSE value 'FOO'"

    @pytest.mark.parametrize("case", sorted(BAD_COLUMNS))
    def test_bad_columns_line(self, case):
        text = TWO_VAR_FIXTURE.replace(
            "    X2        COST      1.0        BAL       1.0", BAD_COLUMNS[case])
        assert self.both(text).startswith("line 7: ")

    def test_bad_number_before_undeclared_row_in_one_pair(self):
        text = TWO_VAR_FIXTURE.replace(
            "    X2        COST      1.0        BAL       1.0", "    X2        NOPE      1..0")
        assert "bad numeric field '1..0'" in self.both(text)

    def test_columns_error_precedes_bounds_error(self):
        text = TWO_VAR_FIXTURE.replace(
            "BAL       1.0\nRHS", "BAD       1.0\nBOUNDS\n UP BND       NOCOL     1.0\nRHS")
        assert self.both(text) == "line 7: undeclared row 'BAD'"

    def test_deferred_error_precedes_malformed_line(self):
        text = TWO_VAR_FIXTURE.replace(
            "    X1        COST      1.0        BAL       1.0",
            "    X1        COST      1.0        BAL       1D+").replace(
            "    X2        COST      1.0        BAL       1.0",
            "    X2        COST      1.0        BAL")
        assert self.both(text) == "line 6: bad numeric field '1D+'"

    def test_declared_marker_row(self):
        text = TWO_VAR_FIXTURE.replace(" E  BAL", " E  BAL\n E  'marker'").replace(
            "    X2        COST      1.0        BAL       1.0",
            "    X2        'marker'  1.0")
        assert self.both(text) == "line 8: integer markers are not supported"

    def test_error_after_columns_section_ends(self):
        text = TWO_VAR_FIXTURE.replace("RHS\n", "RHS\n    RHS1      BAL       x\n", 1)
        assert self.both(text) == "line 9: bad numeric field 'x'"

    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_non_finite_number(self, case):
        old, new, expected = NON_FINITE[case]
        assert TWO_VAR_FIXTURE.count(old) == 1
        assert self.both(TWO_VAR_FIXTURE.replace(old, new)) == expected

    @pytest.mark.parametrize("case", sorted(DIGIT_SEPARATORS))
    def test_digit_separator(self, case):
        old, new, expected = DIGIT_SEPARATORS[case]
        assert TWO_VAR_FIXTURE.count(old) == 1
        assert self.both(TWO_VAR_FIXTURE.replace(old, new)) == expected

    @pytest.mark.parametrize("case", sorted(NON_ASCII_DIGITS))
    def test_non_ascii_digit(self, case):
        old, new, expected = NON_ASCII_DIGITS[case]
        assert TWO_VAR_FIXTURE.count(old) == 1
        assert self.both(TWO_VAR_FIXTURE.replace(old, new)) == expected

    @pytest.mark.parametrize("old,new,expected", [
        ("RHS\n", "RHS\n    RHS1\n", "line 9: malformed RHS line"),
        ("ENDATA", "RANGES\n    RNG1\nENDATA", "line 11: malformed RANGES line"),
        ("ENDATA", "BOUNDS\n FR\nENDATA", "line 11: malformed BOUNDS line"),
        ("ENDATA", "BOUNDS\n mi\nENDATA", "line 11: malformed BOUNDS line"),
    ], ids=["rhs", "ranges", "bounds", "bounds-lower-case"])
    def test_short_line(self, old, new, expected):
        # a set name without a pair was skipped; a bound code without a
        # column raised IndexError
        assert TWO_VAR_FIXTURE.count(old) == 1
        assert self.both(TWO_VAR_FIXTURE.replace(old, new)) == expected

    def test_error_in_a_late_columns_line(self):
        text = random_mps_text(3)
        assert len(text.split("COLUMNS\n")[1].split("RHS\n")[0].splitlines()) > 30
        text, lineno = with_columns_line(text, 30, set_last("1.x"))
        assert self.both(text) == f"line {lineno}: bad numeric field '1.x'"

    def test_first_of_two_late_errors(self):
        text, lineno = with_columns_line(random_mps_text(4), 24,
                                         lambda parts: parts[:1] + ["NOPE"] + parts[2:])
        text, _ = with_columns_line(text, 27, set_last("nan"))
        assert self.both(text) == f"line {lineno}: undeclared row 'NOPE'"
        text, lineno = with_columns_line(random_mps_text(4), 24, set_last("inf"))
        text, _ = with_columns_line(text, 27, set_last("1..0"))
        assert self.both(text) == f"line {lineno}: bad numeric field 'inf'"


# (lines per COLUMNS batch, characters per chunk of text split into lines)
TINY_BATCHES = [(1, 1), (2, 3), (7, 5)]


@pytest.fixture(params=TINY_BATCHES, ids=lambda p: f"batch{p[0]}-chunk{p[1]}")
def tiny_batches(request, monkeypatch):
    batch, chunk = request.param
    monkeypatch.setattr(ingest, "_BATCH_LINES", batch)
    monkeypatch.setattr(ingest, "_CHUNK_CHARS", chunk)


@pytest.mark.usefixtures("tiny_batches")
class TestReferenceEquivalenceInTinyBatches(TestReferenceEquivalence):
    """Every reference text again, with COLUMNS converted a few lines at a
    time and the text split a few characters at a time; the reference
    parser matches the default batches bit for bit, so this one must too."""


@pytest.mark.usefixtures("tiny_batches")
class TestFirstErrorInTinyBatches(TestFirstError):
    """Every first-error case again, with COLUMNS converted a few lines at
    a time and the text split a few characters at a time, so errors land
    in later batches than the first."""


MODEL_FIELDS = ("name", "objective_row", "objective_sense", "row_names", "row_sense",
                "column_names", "rhs", "ranges", "bound_records")


def outcome(text):
    """The parsed model's fields, or the text of the error raised."""
    try:
        model = parse_mps(text)
    except MpsParseError as exc:
        return str(exc)
    arrays = (model.entry_rows, model.entry_cols, model.entry_vals)
    return [getattr(model, name) for name in MODEL_FIELDS] + [(a.dtype, a.tobytes()) for a in arrays]


def with_breaks(text, breaks):
    """``text`` with its newlines replaced by ``breaks``, cycled."""
    lines = text.split("\n")
    return "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines[:-1])) + lines[-1]


class TestBatchAndChunkBoundaries:
    @pytest.mark.parametrize("size", range(1, 12))
    def test_chunks_split_lines_as_splitlines(self, monkeypatch, size):
        text = "a\r\nbb\rc\fd\n\n\r\n e\x1cf\u2028g\r\n\n\rh\x0bi\n\f\r\r\njj\nk"
        monkeypatch.setattr(ingest, "_CHUNK_CHARS", size)
        pieces = list(ingest._chunks(text))
        assert "".join(pieces) == text
        assert all(piece.endswith("\n") for piece in pieces[:-1])
        assert list(chain.from_iterable(map(str.splitlines, pieces))) == text.splitlines()

    @pytest.mark.parametrize("breaks", [["\r\n"], ["\r"], ["\n", "\r", "\r\n", "\f"]],
                             ids=["crlf", "cr", "mixed"])
    def test_line_breaks_across_chunks(self, monkeypatch, breaks):
        texts = FIXTURES + [random_mps_text(seed) for seed in range(3)] + [
            TWO_VAR_FIXTURE.replace(old, new) for old, new, _ in NON_FINITE.values()]
        texts.append(with_columns_line(random_mps_text(5), 20, set_last("1.x"))[0])
        expected = [outcome(text) for text in texts]
        for size in (1, 2, 3, 5, 8, 13):
            monkeypatch.setattr(ingest, "_CHUNK_CHARS", size)
            for batch in (1, 2, 7):
                monkeypatch.setattr(ingest, "_BATCH_LINES", batch)
                for text, want in zip(texts, expected):
                    assert outcome(with_breaks(text, breaks)) == want

    def test_column_split_across_batches(self, monkeypatch):
        text = TWO_VAR_FIXTURE.replace(
            X2_LINE, "    X2  COST  1.0\n    X2  BAL  0.25\n    X2  BAL  0.75")
        expected = outcome(text)
        monkeypatch.setattr(ingest, "_BATCH_LINES", 2)   # X2's lines fall in two batches
        assert outcome(text) == expected
        model = parse_mps(text)
        assert model.column_names == ["X1", "X2"]
        assert coefficient(model, "BAL", "X2") == 1.0


def wide_mps_text(n_lines, m=1000, seed=0):
    """MPS text with ``n_lines`` one-coefficient COLUMNS lines, two per
    column, over ``m`` rows."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(m, size=n_lines).tolist()
    vals = rng.standard_normal(n_lines).tolist()
    out = ["NAME WIDE", "ROWS", " N  OBJ"] + [f" L  R{i}" for i in range(m)] + ["COLUMNS"]
    out += [f"    C{k // 2}  R{r}  {v!r}" for k, (r, v) in enumerate(zip(rows, vals))]
    out += ["RHS", "    RHS  R0  1.0", "ENDATA"]
    return "\n".join(out) + "\n"


class TestMemory:
    def test_parse_peak_is_a_small_multiple_of_the_text(self):
        # Holding every line and token at once peaked at about 14.5 times
        # the text here; a batch at a time, at about 3.4 times (the model
        # it returns is 1.5 times).
        text = wide_mps_text(100_000)
        limit = 6 * len(text)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            model = parse_mps(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(model.column_names) == 50_000
        assert peak - base < limit, (peak - base) / len(text)
