"""The correctness gate that every benchmark result passes through."""

from perfbench import workloads
from perfbench.workloads import Instance, Solve

PLANTED = Instance("p", "planted", None)
DIAGONAL = Instance("d", "diagonal", workloads.diagonal_spec(16))
GOOD = {"status": "optimal", "kkt": 5e-7, "value": 2.0, "iterations": 90, "seconds": 0.1}


def test_right_result_passes():
    assert workloads.check(Solve("p"), GOOD, 2.0, PLANTED) == []


def test_wrong_status_kkt_or_objective_fails():
    assert workloads.check(Solve("p"), dict(GOOD, status="iteration_limit"), 2.0, PLANTED)
    assert workloads.check(Solve("p"), dict(GOOD, kkt=2e-6), 2.0, PLANTED)
    assert workloads.check(Solve("p"), dict(GOOD, value=2.001), 2.0, PLANTED)
    assert workloads.check(Solve("p"), {"error": "ValueError: x"}, 2.0, PLANTED)


def test_distance_to_the_bilinear_saddle_point():
    # sigma_min = 1/16, so the bound is sqrt(2) * 16 * tol
    assert workloads.check(Solve("d"), dict(GOOD, value=2e-5), None, DIAGONAL) == []
    assert workloads.check(Solve("d"), dict(GOOD, value=3e-5), None, DIAGONAL)


def test_table3_rows_must_equal_the_recorded_values():
    rows = [(float(k), mode, it) for k, pair in workloads.TABLE3_ROWS.items()
            for mode, it in zip(("last", "restarted"), pair)]
    average = list(zip((1e-2, 1e-3, 1e-4), workloads.TABLE3_AVERAGE))
    record = {"rows": rows, "average_rows": average, "iterations": 0, "seconds": 1.0}
    assert workloads.check(Solve("table3"), record, None, None) == []
    rows[0] = (4.0, "last", 832)
    assert workloads.check(Solve("table3"), dict(record, rows=rows), None, None)


def test_a_failed_solve_is_counted_and_the_rest_still_checked():
    plan = workloads.Plan((PLANTED,), (Solve("p"), Solve("p", tol=1e-4)))
    passes = [[{"error": "RuntimeError: boom", "iterations": 0, "seconds": 0.0}, GOOD]]
    attempted, failures, iterations = workloads.check_passes(plan, {"p": 2.0}, passes)
    assert attempted == 2
    assert len(failures) == 1 and "boom" in failures[0]
    assert iterations == [90]
