"""Differential corpus: small random LPs through the whole MPS pipeline
against HiGHS.

The two families of :mod:`corpus` are drawn from fixed seeds, one each:
the basic family (E/L/G rows, free and upper-bounded columns) and the
features family (nonzero lower bounds, MI and FX columns, RANGES of either
sign on E, L and G rows, maximization and an objective constant).

A case is written as MPS text and run through ``parse_mps``,
``to_standard_form`` and PDHG with adaptive restarts to KKT 1e-8; HiGHS
(``linprog(method="highs")``) solves the original form.  Where HiGHS finds
an optimum, the objectives agree, read through the variable map's offset
and sense; no other case ends ``optimal``.

The paper's own kind of LP, the QAP linearization relaxation of
:func:`corpus.qap_relaxation`, is solved in standard form at n = 4 and 5,
two seeds each, and at n = 6, seed 0, by PDHG and EGM with adaptive and
flexible restarts to KKT 1e-8; each solve ends ``optimal`` with HiGHS's
objective.
"""

import functools

import numpy as np
import pytest

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
from restartlp.lp_core import _dot
from restartlp.steps import EGM, PDHG

from corpus import (BASIC_SEED, FEATURES_SEED, draw_basic, draw_features, highs,
                    highs_standard_form, qap_relaxation, to_mps)

CASES = 60
KKT_TOL = 1e-8
OBJECTIVE_RTOL = 1e-5
# A case HiGHS solves stops at KKT_TOL well before its cap; a case it does
# not solve runs to its cap, which bounds the corpus's time.
OPTIMAL_LIMIT = 20_000
OTHER_LIMIT = 2_000


def _agrees_with_highs(case):
    ref, want = highs(case)
    problem, vmap = to_standard_form(parse_mps(to_mps(case)))
    sigma = power_method_sigma_max(problem.A)
    options = SolveOptions(StepConfig(PDHG, 0.9 / sigma), RestartScheme.adaptive(),
                           kkt_tol=KKT_TOL,
                           iteration_limit=OTHER_LIMIT if want is None else OPTIMAL_LIMIT)
    res = run_restarted(problem, options)
    if want is None:
        assert res.status != Status.OPTIMAL, (ref.message, res.iterations)
        return
    assert res.status == Status.OPTIMAL, (res.status, res.iterations)
    got = vmap.original_objective(problem, res.solution.x)
    assert abs(got - want) <= OBJECTIVE_RTOL * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("case", range(CASES))
def test_pdhg_agrees_with_highs(case):
    _agrees_with_highs(draw_basic(np.random.default_rng([BASIC_SEED, case])))


@pytest.mark.parametrize("case", range(CASES))
def test_pdhg_agrees_with_highs_on_mps_features(case):
    _agrees_with_highs(draw_features(np.random.default_rng([FEATURES_SEED, case])))


QAP_OBJECTIVE_RTOL = 1e-6
# the slowest of these solves, n = 6 by PDHG or EGM with adaptive restarts,
# stops at 1,920 iterations
QAP_LIMIT = 20_000


@functools.lru_cache(maxsize=None)
def _qap(n, seed):
    """The relaxation, its sigma_max estimate and HiGHS's objective."""
    problem = qap_relaxation(n, seed)
    return problem, power_method_sigma_max(problem.A), highs_standard_form(problem)


@pytest.mark.parametrize("scheme", [RestartScheme.adaptive(), RestartScheme.flexible()],
                         ids=lambda scheme: scheme.kind)
@pytest.mark.parametrize("method", [PDHG, EGM])
@pytest.mark.parametrize("n,seed", [(4, 0), (4, 1), (5, 0), (5, 1), (6, 0)])
def test_qap_relaxation_agrees_with_highs(n, seed, method, scheme):
    problem, sigma, want = _qap(n, seed)
    options = SolveOptions(StepConfig(method, 0.9 / sigma), scheme, kkt_tol=KKT_TOL,
                           iteration_limit=QAP_LIMIT)
    res = run_restarted(problem, options)
    assert res.status == Status.OPTIMAL, (res.status, res.iterations)
    got = _dot(problem.c, res.solution.x)
    assert abs(got - want) <= QAP_OBJECTIVE_RTOL * abs(want), (got, want)
