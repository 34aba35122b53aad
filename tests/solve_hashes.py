"""One sha256 per benchmark workload over everything its solves return.

For each workload of ``perfbench/workloads.py``, this runs the benchmark's
set-up and one pass of its solves through ``perfbench/worker.py``, which it
imports and does not change.  It then hashes what the program returned:
each solve's status, iterations, KKT errors, trace rows without wall time,
returned points and anchors (as :func:`golden_solves.record_of` reads them,
plus the final KKT errors), the primal-weight tuner's table, Table 3's rows
and the worker's own record of each solve without its seconds.  It prints
one line per workload: the name, the total iterations of the solves
outside Table 3, and the hash.

Float bits depend on the BLAS kernel and the thread count, so two hashes
compare two commits only when both ran on one machine, under one kernel and
at one thread count.  Run each commit's copy of this script in its own
checkout::

    python tests/solve_hashes.py --seed 5

BLAS and OpenMP threads default to one, as in the benchmark's worker; set
``OPENBLAS_NUM_THREADS`` to compare at another count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

# before numpy is imported
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from restartlp import cli, restarts  # noqa: E402
from perfbench import worker, workloads  # noqa: E402

from golden_solves import record_of  # noqa: E402


@contextmanager
def recorded(module, name):
    """``module.name`` wrapped for the duration so that each call's result
    is appended to the list this yields."""
    original, results = getattr(module, name), []

    def call(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    setattr(module, name, call)
    try:
        yield results
    finally:
        setattr(module, name, original)


def workload_hash(name, seed):
    """(iterations of the solves outside Table 3, sha256) of workload
    ``name`` at ``seed``."""
    plan, _, text = workloads.make_input(name, seed)
    with recorded(cli, "tune_primal_weight") as tunes, \
            recorded(restarts, "run_restarted") as results:
        ready, _ = worker.set_up(plan, seed, text)
        records = worker.solve_pass(plan, ready)
    parts = [[omega, [[w, float(err).hex()] for w, err in table]] for omega, table in tunes]
    parts += [{**record_of(result), "kkt": [float(result.kkt_avg).hex(), float(result.kkt_last).hex()]}
              for result in results]
    parts += [{key: value for key, value in record.items() if key != "seconds"}
              for record in records]
    digest = hashlib.sha256(json.dumps(parts).encode())
    return sum(result.iterations for result in results), digest.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    for name in workloads.NAMES:
        iterations, digest = workload_hash(name, args.seed)
        print(f"{name} {iterations} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
