"""Outside-in span tracer for the restartlp layers.

The tracer wraps public functions of the package from outside: it replaces
each traced function wherever a restartlp module binds it (``restarts``,
``bilinear`` and ``cli`` import step and gap functions by name, so the
wrapper must sit in their namespaces too) and the traced methods on their
classes.  Each call records a span ``[name, site, start, end, parent,
attr]`` in memory; :func:`summarize` turns the spans into per-layer
numbers when the run ends.  Leaving the ``with`` block restores every
patched name.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

# (defining module, class or "", function, span name)
TRACED = (
    ("lp_core", "SparseMatrix", "matvec", "lp_core.matvec"),
    ("lp_core", "SparseMatrix", "rmatvec", "lp_core.rmatvec"),
    ("lp_core", "", "power_method_sigma_max", "lp_core.power_method_sigma_max"),
    ("lp_core", "", "residuals", "lp_core.residuals"),
    ("ingest", "", "parse_mps", "ingest.parse_mps"),
    ("ingest", "", "to_standard_form", "ingest.to_standard_form"),
    ("ingest", "", "generate", "ingest.generate"),
    ("steps", "", "pdhg_step", "steps.pdhg_step"),
    ("steps", "", "egm_step", "steps.egm_step"),
    ("steps", "", "admm_step", "steps.admm_step"),
    ("steps", "", "ppm_bilinear_step", "steps.ppm_bilinear_step"),
    ("steps", "AffineProjector", "project", "steps.AffineProjector.project"),
    ("steps", "AffineProjector", "solve_normal", "steps.AffineProjector.solve_normal"),
    ("gap", "", "normalized_gap_lp", "gap.normalized_gap_lp"),
    ("gap", "", "normalized_gap_admm", "gap.normalized_gap_admm"),
    ("gap", "", "solve_linear_trust_region", "gap.solve_linear_trust_region"),
    ("restarts", "", "run_restarted", "restarts.run_restarted"),
    ("bilinear", "", "table3_scaling_experiment", "bilinear.table3_scaling_experiment"),
    ("cli", "", "tune_primal_weight", "cli.tune_primal_weight"),
)

PACKAGE = "restartlp"
MODULES = ("lp_core", "ingest", "steps", "gap", "restarts", "bilinear", "cli")
SPMV = ("lp_core.matvec", "lp_core.rmatvec")
STEPS = ("steps.pdhg_step", "steps.egm_step", "steps.ppm_bilinear_step", "steps.admm_step")
RUN = "restarts.run_restarted"


def spmv_bytes(A):
    """Bytes one CSR product with ``A`` touches, computed from the sizes:
    8-byte values and 4-byte column indices per nonzero, 4-byte row
    pointers, and one read of the input and one write of the output."""
    return 12 * A.vals.size + 4 * (A.n_rows + 1) + 8 * (A.n_rows + A.n_cols)


def _run_counts(args, out):
    return (out.iterations, len(out.trace.records), out.restart_count)


ATTRS = {
    "lp_core.matvec": lambda args, out: spmv_bytes(args[0]),
    "lp_core.rmatvec": lambda args, out: spmv_bytes(args[0]),
    "ingest.parse_mps": lambda args, out: len(args[0]),
    RUN: _run_counts,
}


class Tracer:
    """Context manager that records spans around the traced functions.

    Spans accumulate across repeated ``with`` blocks of one tracer, so a
    run can trace set-up and solves and leave a pass between them untraced.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, site):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attr = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, site, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if attr is not None:
                rec[5] = attr(args, out)
            return out

        return wrapper

    def __enter__(self):
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        modules[""] = importlib.import_module(PACKAGE)
        originals = {}
        for mod, cls, func, name in TRACED:
            if cls:
                holder = getattr(modules[mod], cls)
                self._patch(holder, func, self._wrap(holder.__dict__[func], name, cls))
            else:
                fn = getattr(modules[mod], func)
                originals[id(fn)] = (fn, name)
        # patch every namespace that binds a traced function, so calls are
        # seen whichever module makes them
        for site, module in modules.items():
            for attr, value in list(vars(module).items()):
                fn, name = originals.get(id(value), (None, None))
                if fn is value:
                    self._patch(module, attr, self._wrap(value, name, site or PACKAGE))
        return self

    def _patch(self, holder, attr, value):
        self._saved.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, value)

    def __exit__(self, *exc):
        while self._saved:
            holder, attr, value = self._saved.pop()
            setattr(holder, attr, value)
        return False


# ---------------------------------------------------------------------------
# From spans to per-layer numbers
# ---------------------------------------------------------------------------


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    dur = np.array([s[3] - s[2] for s in spans])
    child = np.zeros(len(spans))
    for s, d in zip(spans, dur):
        if s[4] >= 0:
            child[s[4]] += d
    return dur, dur - child


def under(spans, names):
    """Per span: is it, or is it inside, a span with one of ``names``."""
    flag = np.zeros(len(spans), dtype=bool)
    for i, s in enumerate(spans):
        flag[i] = s[0] in names or (s[4] >= 0 and flag[s[4]])
    return flag


def layer_table(spans, dur, own):
    """One row per traced name: calls, median per-call microseconds, total
    and self seconds."""
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    rows = []
    for name in sorted(by_name):
        idx = by_name[name]
        rows.append({
            "name": name,
            "calls": len(idx),
            "per_call_us": 1e6 * statistics.median(dur[idx].tolist()),
            "total_s": float(dur[idx].sum()),
            "self_s": float(own[idx].sum()),
        })
    return rows


def summarize(spans, solve_untraced_s, solve_traced_s):
    """The per-call layer table and the per-layer metrics of one traced
    run; the tracing overhead compares the traced pass of the solves with
    an untraced pass of the same solves."""
    dur, own = self_times(spans)
    table = layer_table(spans, dur, own)
    in_step, in_run = under(spans, STEPS), under(spans, (RUN,))
    names = np.array([s[0] for s in spans], dtype=object)
    rows = {r["name"]: r for r in table}

    def row(name, key, default=0.0):
        return rows[name][key] if name in rows else default

    spmv = np.isin(names, SPMV)
    step = np.isin(names, STEPS)
    run_idx = np.nonzero(names == RUN)[0]
    iterations = sum(spans[i][5][0] for i in run_idx)
    checkpoints = sum(spans[i][5][1] for i in run_idx)
    restarts = sum(spans[i][5][2] for i in run_idx)
    run_steps = int(np.sum(step & in_run))
    bytes_moved = sum(spans[i][5] for i in np.nonzero(spmv)[0])
    spmv_self = float(own[spmv].sum())
    gap_evals = int(np.sum(np.isin(names, ("gap.normalized_gap_lp", "gap.normalized_gap_admm")) & in_run))
    # checkpoint work is what run_restarted calls directly outside its steps
    parent = np.array([s[4] for s in spans], dtype=np.int64)
    child_of_run = np.zeros(len(spans), dtype=bool)
    child_of_run[parent >= 0] = names[parent[parent >= 0]] == RUN
    checkpoint_s = float(dur[child_of_run & ~step].sum())
    project_calls = row("steps.AffineProjector.project", "calls", 0)
    parse_bytes = sum(s[5] for s in spans if s[0] == "ingest.parse_mps")
    parse_s = row("ingest.parse_mps", "total_s")

    def ratio(a, b):
        return float(a) / b if b else 0.0

    m = [
        ("lp_core.spmv.self_s", "s", spmv_self),
        ("lp_core.spmv.per_call_us", "us", 1e6 * float(np.median(dur[spmv])) if spmv.any() else 0.0),
        ("lp_core.spmv.gb_per_s_computed", "GB/s", ratio(bytes_moved / 1e9, spmv_self)),
        ("lp_core.matvec.calls", "count", row("lp_core.matvec", "calls", 0)),
        ("lp_core.matvec.per_call_us", "us", row("lp_core.matvec", "per_call_us")),
        ("lp_core.rmatvec.calls", "count", row("lp_core.rmatvec", "calls", 0)),
        ("lp_core.rmatvec.per_call_us", "us", row("lp_core.rmatvec", "per_call_us")),
        ("lp_core.residuals.per_call_us", "us", row("lp_core.residuals", "per_call_us")),
        ("restarts.iterations", "count", iterations),
        ("restarts.checkpoints", "count", checkpoints),
        ("restarts.restarts", "count", restarts),
        ("restarts.restart_ratio", "ratio", ratio(restarts, checkpoints)),
        ("restarts.checkpoint.spmv_calls", "count", int(np.sum(spmv & in_run & ~in_step))),
        ("restarts.checkpoint.per_call_us", "us", 1e6 * ratio(checkpoint_s, checkpoints)),
        ("restarts.step.spmv_per_iter", "ratio", ratio(np.sum(spmv & in_run & in_step), run_steps)),
        ("restarts.run_restarted.self_us_per_iter", "us", 1e6 * ratio(row(RUN, "self_s"), run_steps)),
        ("gap.solve_linear_trust_region.self_s", "s", row("gap.solve_linear_trust_region", "self_s")),
        ("gap.solve_linear_trust_region.per_call_us", "us",
         row("gap.solve_linear_trust_region", "per_call_us")),
        ("gap.evals_per_checkpoint", "ratio", ratio(gap_evals, checkpoints)),
        ("gap.normalized_gap_admm.total_s", "s", row("gap.normalized_gap_admm", "total_s")),
        ("steps.AffineProjector.project.total_s", "s", row("steps.AffineProjector.project", "total_s")),
        ("steps.AffineProjector.project.spmv_per_call", "ratio", ratio(
            np.sum(spmv & under(spans, ("steps.AffineProjector.project",))), project_calls)),
        ("steps.AffineProjector.solve_normal.total_s", "s",
         row("steps.AffineProjector.solve_normal", "total_s")),
        ("ingest.parse_mps.total_s", "s", parse_s),
        ("ingest.parse_mps.mb_per_s", "MB/s", ratio(parse_bytes / 1e6, parse_s)),
        ("ingest.to_standard_form.total_s", "s", row("ingest.to_standard_form", "total_s")),
        ("ingest.generate.total_s", "s", row("ingest.generate", "total_s")),
        ("lp_core.power_method_sigma_max.total_s", "s", row("lp_core.power_method_sigma_max", "total_s")),
        ("lp_core.power_method_sigma_max.spmv_calls", "count",
         int(np.sum(spmv & under(spans, ("lp_core.power_method_sigma_max",))))),
        ("cli.tune_primal_weight.total_s", "s", row("cli.tune_primal_weight", "total_s")),
        ("bilinear.table3_scaling_experiment.total_s", "s",
         row("bilinear.table3_scaling_experiment", "total_s")),
        ("bilinear.pdhg_step.calls", "count",
         sum(1 for s in spans if s[0] == "steps.pdhg_step" and s[1] == "bilinear")),
        ("trace.overhead_frac", "ratio", ratio(solve_traced_s, solve_untraced_s) - 1.0),
    ]
    for name in STEPS:
        m.append((f"{name}.self_s", "s", row(name, "self_s")))
        m.append((f"{name}.per_call_us", "us", row(name, "per_call_us")))
    return table, {name: {"value": value, "unit": unit} for name, unit, value in m}
