"""The outside-in span tracer and the per-layer numbers derived from it."""

import pytest

import restartlp
from restartlp import RandomLpKnownOptimum, RestartScheme, bilinear, cli, restarts
from restartlp.lp_core import SparseMatrix
from restartlp.steps import ADMM, EGM, PDHG, AffineProjector

from perfbench import tracer, worker
from perfbench.workloads import Instance, Plan, Solve

COUNTS = ("lp_core.matvec.calls", "lp_core.rmatvec.calls", "restarts.iterations",
          "restarts.checkpoints", "restarts.restarts", "restarts.checkpoint.spmv_calls")


def test_self_time_of_nested_spans():
    spans = [
        ["a", "", 0.0, 10.0, -1, None],
        ["b", "", 1.0, 4.0, 0, None],
        ["c", "", 2.0, 3.0, 1, None],
        ["d", "", 5.0, 7.0, 0, None],
        ["e", "", 11.0, 12.0, -1, None],
    ]
    dur, own = tracer.self_times(spans)
    assert dur.tolist() == [10.0, 3.0, 1.0, 2.0, 1.0]
    assert own.tolist() == [5.0, 2.0, 1.0, 2.0, 1.0]


def _bound_names():
    return {
        "restarts.pdhg_step": restarts.pdhg_step,
        "restarts.run_restarted": restarts.run_restarted,
        "restarts.normalized_gap_lp": restarts.normalized_gap_lp,
        "bilinear.pdhg_step": bilinear.pdhg_step,
        "cli.tune_primal_weight": cli.tune_primal_weight,
        "cli.pdhg_step": cli.pdhg_step,
        "package.run_restarted": restartlp.run_restarted,
        "SparseMatrix.matvec": SparseMatrix.__dict__["matvec"],
        "AffineProjector.project": AffineProjector.__dict__["project"],
    }


def test_patched_names_are_restored():
    before = _bound_names()
    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            during = _bound_names()
            raise RuntimeError("leave the block early")
    after = _bound_names()
    for name, fn in before.items():
        assert during[name] is not fn, name
        assert after[name] is fn, name


def _plan():
    small = RandomLpKnownOptimum(10, 20, 0.4, 0)
    admm = RandomLpKnownOptimum(20, 40, 0.2, 1)
    return Plan(
        (Instance("small", "planted", small), Instance("admm", "planted", admm, needs_sigma=False)),
        (Solve("small", PDHG, RestartScheme.adaptive()),
         Solve("small", EGM, RestartScheme.flexible()),
         Solve("admm", ADMM, RestartScheme.adaptive(), limit=5000)),
    )


def _traced_run(plan):
    spans = tracer.Tracer()
    with spans:
        ready, _ = worker.set_up(plan, 3, "")
        records = worker.solve_pass(plan, ready)
    return records, tracer.summarize(spans.spans, 1.0, 1.0)[1]


def test_two_traced_runs_give_identical_counts():
    plan = _plan()
    untraced = worker.solve_pass(plan, worker.set_up(plan, 3, "")[0])
    first, m1 = _traced_run(plan)
    second, m2 = _traced_run(plan)
    assert all(r["status"] == "optimal" for r in first)
    for name in COUNTS:
        assert m1[name]["value"] == m2[name]["value"], name
    iterations = sum(r["iterations"] for r in untraced)
    assert m1["restarts.iterations"]["value"] == iterations
    assert [r["iterations"] for r in first] == [r["iterations"] for r in untraced]


def test_spmv_per_iteration_of_a_pdhg_step():
    plan = _plan()
    plan = Plan(plan.instances[:1], plan.solves[:1])
    _, m = _traced_run(plan)
    assert m["restarts.step.spmv_per_iter"]["value"] == 2.0
    assert m["restarts.checkpoints"]["value"] > 0
    assert m["restarts.checkpoint.spmv_calls"]["value"] > 0
    assert m["lp_core.power_method_sigma_max.spmv_calls"]["value"] > 0
