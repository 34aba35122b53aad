"""PDHG experiments on diagonal bilinear problems: the condition-number
scaling of Table 3 and the toy trajectories of Figure 1.

On L(x, y) = y' diag(sigma) x the PDHG recurrence decouples into independent
2x2 blocks z_i <- P_i z_i, whose iterates decay geometrically at the rate
1 - eta^2 sigma_i^2 while the running average decays like 1/K.  The scaling
experiment measures how iteration counts of the last iterate, the average
iterate, and fixed-frequency restarts grow with the condition number,
reproducing the square-root gap that restarting closes.

The scaling experiment and the toy trajectories step through
:func:`~restartlp.restarts.run_restarted`, the same restart loop as every
LP solve: a run without restarts or with fixed-frequency restarts, no KKT
stop, and an ``observe`` hook that reads the iterate or the running average
on every iteration and ends the run once its threshold is met.

The scaling experiment's runs without restarts (the last iterate at every
kappa, and the average) are one run on the stack of their lone problems,
a 2x2 block each (:func:`~restartlp.restarts._stack`).  Since PDHG on a
problem whose A has one entry per row and per column, and the running
average, are elementwise, each block carries exactly the bits a run of
that block alone would, and the hook reads each block at the indices the
stack gives it (:func:`~restartlp.restarts._block_indices`).  One run
costs the per-iteration overhead of the longest one instead of the sum
of all.  The average mode's hook keeps its own incremental average of its
block (see :func:`table3_scaling_experiment`).

That hook reads the iterate once per iteration as Python floats and runs
its tests in scalar arithmetic, since numpy's per-call cost on 4-vectors is
about that of the PDHG step itself.  Every threshold of the experiment is
decided on one sum of squares, :func:`_sum_sq`, summed left to right, so no
decision depends on the order in which a BLAS kernel adds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ingest import DiagonalBilinear, generate
from .lp_core import SaddlePoint
from .restarts import (DEFAULT_BETA, RestartScheme, SolveOptions, Status, _block_indices,
                       _stack, fixed_frequency_tstar, run_restarted)
from .steps import PDHG, StepConfig
# Not called here (every step runs inside run_restarted); the name stays
# bound because perfbench's span-tracer test reads it from this module.
from .steps import pdhg_step  # noqa: F401

__all__ = [
    "Table3Report",
    "table3_arguments",
    "table3_scaling_experiment",
    "two_dim_toy_series",
]


# ---------------------------------------------------------------------------
# Condition-number scaling experiment
# ---------------------------------------------------------------------------


@dataclass
class Table3Report:
    """Iterations-to-threshold for the three PDHG modes across kappa."""

    rows: list = field(default_factory=list)          # (kappa, mode, iterations or None)
    average_rows: list = field(default_factory=list)  # (eps, iterations or None)
    last_slope: float = float("nan")
    restarted_slope: float = float("nan")
    average_slope: float = float("nan")

    def csv_rows(self):
        out = [("kappa", "mode", "iterations")]
        for kappa, mode, iters in self.rows:
            out.append((kappa, mode, "" if iters is None else iters))
        for eps, iters in self.average_rows:
            out.append((eps, "average_vs_eps", "" if iters is None else iters))
        return out


# |z0 - z*|^2 and |z0 - z*| for a block z0 = (1, 1, 1, 1) and z* = 0
_D0SQ, _D0 = 4.0, 2.0


def _sum_sq(a, b, c, d):
    """a^2 + b^2 + c^2 + d^2 of one block, summed left to right in Python
    floats: the one arithmetic every threshold of Table 3 is tested in."""
    return a * a + b * b + c * c + d * d


def _stacked_observe(blocks, eps, levels, last, hits):
    """The ``observe`` hook of Table 3's stacked run (see
    :func:`table3_scaling_experiment`).

    ``blocks`` holds the flat indices of each block of the stack
    (:func:`~restartlp.restarts._block_indices`): block 0 is the average
    mode's, block j + 1 the last-iterate mode's of the j-th kappa.  The
    hook sets ``last[j]`` to the first iteration whose |z_{j+1}|^2 / |z0|^2
    is at most ``eps``, appends to ``hits`` the first iteration at which
    the incremental average of block 0 has norm at most
    ``levels[len(hits)]``, and ends the run once every row is known.  It
    reads the iterate once, as Python floats, and tests each value on
    :func:`_sum_sq`."""
    pending = [(j, index.tolist()) for j, index in enumerate(blocks[1:])]
    a0, b0, c0, d0 = blocks[0].tolist()
    mean = ()

    def observe(t, z, average):
        nonlocal pending, mean
        zs = z.tolist()
        hit = False
        for i, (a, b, c, d) in pending:
            if _sum_sq(zs[a], zs[b], zs[c], zs[d]) / _D0SQ <= eps:
                last[i] = t
                hit = True
        if hit:
            pending = [block for block in pending if last[block[0]] is None]
        if len(hits) < len(levels):
            # the paper's zbar_t = zbar_{t-1} + (z_t - zbar_{t-1}) / t, which
            # rounds as the ufuncs np.subtract, np.divide and np.add do
            if t == 1:
                ma, mb, mc, md = zs[a0], zs[b0], zs[c0], zs[d0]
            else:
                ma, mb, mc, md = mean
                ma += (zs[a0] - ma) / t
                mb += (zs[b0] - mb) / t
                mc += (zs[c0] - mc) / t
                md += (zs[d0] - md) / t
            mean = ma, mb, mc, md
            nrm = math.sqrt(_sum_sq(ma, mb, mc, md))
            while len(hits) < len(levels) and nrm <= levels[len(hits)]:
                hits.append(t)
        return not pending and len(hits) == len(levels)

    return observe


def _pdhg_run(problem, eta, scheme, z0, iterations, observe):
    """Unscaled PDHG through :func:`run_restarted` with no KKT stop:
    ``observe`` sees every iteration and may end the run.  Its only
    checkpoints are a fixed scheme's restarts and the run's last
    iteration."""
    options = SolveOptions(StepConfig(PDHG, eta), scheme, kkt_tol=0.0,
                           iteration_limit=iterations, check_cadence=iterations)
    return run_restarted(problem, options, z0=z0, observe=observe)


def _ones(n):
    return SaddlePoint(np.ones(n), np.ones(n))


def table3_arguments(kappas, eps, avg_kappa=4):
    """``kappas`` as a list of floats, once they, ``eps`` and ``avg_kappa``
    are checked as :func:`table3_scaling_experiment` reads them: a
    ValueError unless the list is nonempty, every kappa is finite and at
    least 2 and eps lies in (0, 1/2]."""
    kappas = [float(k) for k in kappas]
    if not kappas:
        raise ValueError("kappa list must be nonempty")
    if not all(2 <= k < math.inf for k in kappas + [float(avg_kappa)]):
        raise ValueError("kappa values must be >= 2 and finite")
    if not 0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    return kappas


def table3_scaling_experiment(kappas, eps, avg_kappa=4, avg_eps=(1e-2, 1e-3, 1e-4),
                              cap=5_000_000):
    """Measure iterations-to-threshold vs condition number at eta = 1/2
    (i.e. 1/(2 sigma_max) for the two-point spectrum (1/kappa, 1)), from
    z0 = (1, 1, 1, 1) with z* = 0.

    * last iterate / restarted: first t with |z - z*|^2 / |z0 - z*|^2 <= eps,
      where the restarted mode runs fixed-frequency restarts at
      t* = ceil(2C(q+2)/(alpha beta)) with alpha = 1/kappa and monitors the
      running average.
    * average mode (at ``avg_kappa``): first K with |zbar - z*| / |z0 - z*|
      <= eps_a for each eps_a, whose growth is linear in 1/eps_a.

    The restarted modes run one PDHG solve per kappa.  The last-iterate
    modes and the average mode never restart, so they run as one solve on
    the stack of their lone problems (:func:`~restartlp.restarts._stack`):
    the ``avg_kappa`` block, then a block per kappa in the caller's order,
    all started from ones.  Its ``observe`` hook
    (:func:`_stacked_observe`) tests each block still pending against its
    threshold and ends the run once every row is known.  The result is
    exact, not an approximation: A has one entry per row, and every PDHG
    operation is elementwise, so each block holds the same bits as a lone
    run of it would.  Every test, the restarted modes' included, is decided
    on :func:`_sum_sq` of the block's four values.

    The average mode does not read the driver's average, which is the
    running sum of the iterates divided by K.  Its hook keeps the paper's
    incremental average zbar_K = zbar_{K-1} + (z_K - zbar_{K-1}) / K of its
    block itself, in Python floats: the subtraction, division and addition
    round as numpy's elementwise ufuncs do, so it holds their bits.  The
    rows at 1e-3 and 1e-4 are roundoff ties (|zbar_K| K / |z0| reads
    4.999999999999987 at K = 5000 and 5.000000000000052 at K = 50000), so
    sum / K, whose rounding differs, would record 50000 in place of 50001.

    Modes that fail to converge within ``cap`` are recorded with ``None``.
    """
    kappas = table3_arguments(kappas, eps, avg_kappa)
    config = StepConfig(PDHG, 0.5)

    # block 0 is avg_kappa's; the kappas follow in the caller's order
    blocks = [generate(DiagonalBilinear((1.0 / kappa, 1.0)))[0]
              for kappa in [float(avg_kappa)] + kappas]
    problem = _stack(blocks)
    last = [None] * len(kappas)
    thresholds = sorted(avg_eps, reverse=True)
    levels = [e * _D0 for e in thresholds]
    hits = []
    observe = _stacked_observe(_block_indices(blocks), eps, levels, last, hits)
    _pdhg_run(problem, config.eta, RestartScheme.none(), _ones(problem.n), cap, observe)
    hits += [None] * (len(levels) - len(hits))

    def average_reached_eps(t, z, average):
        return _sum_sq(*average().tolist()) / _D0SQ <= eps

    report = Table3Report()
    for kappa, problem, last_iters in zip(kappas, blocks[1:], last):
        tstar = fixed_frequency_tstar(config.sufficient_decay_c, config.target_proximity_q,
                                      1.0 / kappa, DEFAULT_BETA)
        res = _pdhg_run(problem, config.eta, RestartScheme.fixed(tstar), _ones(2), cap,
                        average_reached_eps)
        restarted = res.iterations if res.status == Status.STOPPED else None
        report.rows += [(kappa, "last", last_iters), (kappa, "restarted", restarted)]
    report.average_rows = list(zip(thresholds, hits))

    report.last_slope = _fit_slope([(k, i) for k, mode, i in report.rows if mode == "last"])
    report.restarted_slope = _fit_slope(
        [(k, i) for k, mode, i in report.rows if mode == "restarted"])
    report.average_slope = _fit_slope([(1.0 / e, i) for e, i in report.average_rows])
    return report


def _fit_slope(pairs):
    """Least-squares slope of log(iterations) against log(x) over the
    (x, iterations) pairs that reached their threshold."""
    points = [(math.log(x), math.log(iters)) for x, iters in pairs if iters is not None]
    if len(points) < 2:
        return float("nan")
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# The two-dimensional toy trajectories
# ---------------------------------------------------------------------------


# Figure 1: 50 PDHG steps at eta = 0.2 from (1, 1), restarted every 25
TOY_ITERATIONS = 50
TOY_ETA = 0.2
TOY_RESTART_LENGTH = 25
TOY_START = (1.0, 1.0)


def two_dim_toy_series():
    """Iterate paths on L(x, y) = x y: plain PDHG and fixed-frequency
    restarted PDHG, with the Figure 1 constants above.

    Returns ``(plain, restarted)`` arrays of shape (TOY_ITERATIONS + 1, 2):
    the plain path holds the iterates z^t, the restarted path the running
    average that the restart scheme tracks (reset every TOY_RESTART_LENGTH
    steps, like the candidate it restarts to).
    """
    problem, _ = generate(DiagonalBilinear((1.0,)))
    z0 = SaddlePoint(np.array([TOY_START[0]]), np.array([TOY_START[1]]))

    def series(scheme, keep_average):
        path = np.empty((TOY_ITERATIONS + 1, 2))
        path[0] = TOY_START

        def observe(t, z, average):
            path[t] = average() if keep_average else z
            return False

        _pdhg_run(problem, TOY_ETA, scheme, z0, TOY_ITERATIONS, observe)
        return path

    return (series(RestartScheme.none(), False),
            series(RestartScheme.fixed(TOY_RESTART_LENGTH), True))
