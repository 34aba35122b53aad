"""restartlp benchmark: time and iterations to a stated KKT accuracy.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lp-large --seed 1 --seconds 10 --trace 0

The script makes the workload's input from ``--seed``, runs the program on
it in a child process (``worker.py``), checks every result against the
planted optimum or the recorded Table 3 values, and prints one JSON object
as its last line.  With ``--trace 0`` the metrics are the end-to-end ones
(``setup_s``, ``solve_s``, ``iterations``, ``peak_rss_mb``); with
``--trace 1`` they are the per-layer ones from an outside-in span trace.
``failed`` / ``attempted`` in that line is the share of failed solves.
Earlier lines record the environment, the matrix sizes, every failure and,
when traced, the per-call layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# BLAS / OpenMP threads: a plain single-threaded run, which the sparse
# products are anyway; threaded vector kernels only add noise on a shared
# machine.  Must be set before numpy is imported.
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# The whole run must end within 180 s.
DEADLINE_S = 170.0
LLC_NOTE = ("computed bytes ignore cache misses; every matrix is far smaller "
            "than 4x the last-level cache, so no bandwidth or roofline ratio is claimed")

UNITS = {"setup_s": "s", "solve_s": "s", "iterations": "count", "peak_rss_mb": "MB"}


def _cpu():
    """CPU model and cache size as the kernel reports them."""
    info = {}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return info.get("model name", platform.processor()), info.get("cache size", "unknown")


def environment(args, numpy, scipy):
    model, cache = _cpu()
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "cpu": model,
            "last_level_cache": cache, "nproc": os.cpu_count(), "thread_cap": THREAD_CAP}


def run_worker(args, text, deadline):
    """Run the workload in a child process; returns what it printed."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, input=text, capture_output=True, text=True, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="lp-large, lp-small or admm")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "restartlp" / "__init__.py").is_file():
        print(f"error: no restartlp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # imported only now: numpy reads the thread cap when it loads
    import numpy
    import scipy

    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    plan, refs, text = workloads.make_input(args.workload, args.seed)
    try:
        out = run_worker(args, text, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failures, iterations = workloads.check_passes(plan, refs, out["passes"])

    print("environment " + json.dumps(environment(args, numpy, scipy)))
    print("sizing " + json.dumps({"matrices": out["sizing"], "note": LLC_NOTE}))
    for line in failures:
        print(f"FAILED {line}")
    deterministic = len(set(iterations)) == 1
    if not deterministic:
        print(f"FAILED iteration totals differ between passes: {iterations}")
    if args.trace:
        print(f"{'layer':42s} {'calls':>9s} {'median us':>11s} {'total s':>9s} {'self s':>9s}")
        for row in out["table"]:
            print(f"{row['name']:42s} {row['calls']:9d} {row['per_call_us']:11.1f} "
                  f"{row['total_s']:9.3f} {row['self_s']:9.3f}")
        metrics = out["layers"]
    else:
        values = {
            "setup_s": statistics.median(out["setup_s"]),
            # each solve's median over the passes, summed
            "solve_s": sum(statistics.median(r["seconds"] for r in same)
                           for same in zip(*out["passes"])),
            "iterations": iterations[0],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"fail_frac = {len(failures)}/{attempted}")
    print(json.dumps({"correct": not failures and deterministic, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
