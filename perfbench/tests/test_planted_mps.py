"""The planted-MPS writer and the seeded relabelling of the benchmark."""

import numpy as np
import pytest
from scipy.optimize import linprog

from restartlp import (
    RandomLpKnownOptimum,
    SaddlePoint,
    StepConfig,
    generate,
    parse_mps,
    pdhg_step,
    residuals,
    to_standard_form,
)
from restartlp.steps import PDHG

from perfbench.instances import permutations, permute_problem, write_planted_mps

SMALL = [(10, 20, 0.4, 0), (50, 100, 0.2, 1), (200, 400, 0.05, 2)]


def _planted(m, n, density, seed):
    return generate(RandomLpKnownOptimum(m, n, density, seed))


def test_writer_is_deterministic_given_seeds():
    problem, optimum = _planted(50, 100, 0.2, 1)
    a = write_planted_mps(problem, optimum, 7, 3)
    b = write_planted_mps(problem, optimum, 7, 3)
    c = write_planted_mps(problem, optimum, 7, 4)
    assert a == b
    assert c[0] != a[0]
    assert c[1] == a[1]


@pytest.mark.parametrize("m,n,density,seed", SMALL)
def test_planted_objective_matches_highs(m, n, density, seed):
    problem, optimum = _planted(m, n, density, seed)
    text, planted = write_planted_mps(problem, optimum, 7, seed + 10)
    std, vmap = to_standard_form(parse_mps(text))
    res = linprog(std.c, A_eq=std.A.to_dense(), b_eq=std.b, bounds=(0, None), method="highs")
    assert res.status == 0
    assert vmap.original_objective(std, res.x) == pytest.approx(planted, rel=1e-8, abs=1e-8)


def test_every_row_sense_range_and_bound_code_appears():
    problem, optimum = _planted(200, 400, 0.05, 2)
    text, _ = write_planted_mps(problem, optimum, 7, 1)
    section, senses, codes, ranges, objsense = None, set(), set(), 0, None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        parts = line.split()
        if section == "ROWS":
            senses.add(parts[0])
        elif section == "BOUNDS":
            codes.add(parts[0])
        elif section == "RANGES":
            ranges += 1
        elif section == "OBJSENSE":
            objsense = parts[0]
    assert senses == {"N", "E", "L", "G"}
    assert ranges > 0
    assert codes == {"FR", "MI", "UP", "LO", "FX"}
    assert objsense == "MAX"


def test_relabelling_keeps_the_planted_pair_and_the_iterates():
    problem, optimum = _planted(50, 100, 0.2, 1)
    permuted = permute_problem(problem, 5)
    prow, pcol = permutations(5, problem.m, problem.n)
    planted = SaddlePoint(optimum.x[pcol], optimum.y[prow])
    assert residuals(permuted, planted).kkt_error <= 1e-12
    config = StepConfig(PDHG, 0.05)
    z, w = SaddlePoint.zeros(problem), SaddlePoint.zeros(permuted)
    for _ in range(200):
        z = pdhg_step(problem, z, config).next
        w = pdhg_step(permuted, w, config).next
    np.testing.assert_allclose(w.x, z.x[pcol], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(w.y, z.y[prow], rtol=1e-10, atol=1e-12)
