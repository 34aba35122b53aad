"""Every solve of the golden record (:mod:`golden_solves`) returns what the
record holds: integers exactly, floats to ``RTOL``.

Float bits depend on the CPU kernel OpenBLAS picks: the record's solves give
other bits under ``OPENBLAS_CORETYPE=Haswell`` than under SkylakeX, with the
same iterations and restarts.  ``RTOL`` bounds the relative difference of
each trace float.  Under the Haswell, Zen and Prescott kernels the largest
was 8e-9 on the planted and bilinear solves and 1.2e-7 on the QAP
relaxation (Prescott, the KKT error of one average), and two BLAS threads
kept every bit of one."""

import json
import math

import pytest

import golden_solves

RTOL = 1e-6

RECORD = json.loads(golden_solves.PATH.read_text())


def _floats_close(got, want):
    return all(math.isclose(float.fromhex(g), float.fromhex(w), rel_tol=RTOL)
               for g, w in zip(got, want, strict=True))


def test_the_record_covers_every_solve():
    assert sorted(RECORD) == sorted(golden_solves.SOLVES)


@pytest.mark.parametrize("name", sorted(golden_solves.SOLVES))
def test_solve_matches_the_record(name):
    got, want = golden_solves.SOLVES[name](), RECORD[name]
    if name == "table3":
        assert got == want
        return
    if "omega" in want:
        assert got["omega"] == want["omega"]
        assert [w for w, _ in got["table"]] == [w for w, _ in want["table"]]
        assert _floats_close([e for _, e in got["table"]], [e for _, e in want["table"]])
        return
    for key in ("status", "iterations", "restart_iterations"):
        assert got[key] == want[key], key
    if "objective" in want:
        assert _floats_close([got["objective"]], [want["objective"]])
    assert len(got["rows"]) == len(want["rows"])
    for k, (row, ref) in enumerate(zip(got["rows"], want["rows"])):
        assert row[:4] == ref[:4], k
        assert _floats_close(row[4:], ref[4:]), (k, row, ref)
