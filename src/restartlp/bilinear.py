"""Closed-form spectral analysis of PDHG on diagonal bilinear problems.

On L(x, y) = y' diag(sigma) x the PDHG recurrence decouples into independent
2x2 blocks z_i <- P_i z_i.  Each block has complex eigenvalues of squared
modulus 1 - eta^2 sigma_i^2, and in the metric B_i of the eigenbasis the
iterates decay geometrically at exactly that rate while the running average
decays like 1/K within explicit two-sided bounds.  The scaling experiment
measures how iteration counts of the last iterate, the average iterate, and
fixed-frequency restarts grow with the condition number, reproducing the
square-root gap that restarting closes.

Complex arithmetic is carried as explicit real 2x2 algebra throughout: the
eigenbasis metric works out to the real symmetric matrix
B = [[1, -eta sigma], [-eta sigma, 1]] / (2 (1 - eta^2 sigma^2)).

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
about that of the PDHG step itself.  The incremental average takes the same
IEEE binary64 operations as numpy's elementwise ufuncs, so it keeps its
bits.  A sum of squares may differ from numpy's dot product of the same
values by a few ulps, so a value within a small margin of its threshold is
decided by numpy's expression on the block instead (:func:`_tie_band`):
every decision is the one a numpy test would make.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ingest import DiagonalBilinear, generate
from .lp_core import SaddlePoint
from .restarts import (RestartScheme, SolveOptions, Status, _block_indices, _stack,
                       fixed_frequency_tstar, run_restarted)
from .steps import PDHG, StepConfig
# Not called here (every step runs inside run_restarted); the name stays
# bound because perfbench's span-tracer test reads it from this module.
from .steps import pdhg_step  # noqa: F401

__all__ = [
    "SpectralBlock",
    "dynamics_matrix",
    "b_metric_matrix",
    "b_norm_sq",
    "theoretical_B_norm_decay",
    "theoretical_average_bound",
    "Table3Report",
    "table3_scaling_experiment",
    "two_dim_toy_series",
]


def _check_block(sigma, eta):
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0 < eta <= 1.0 / sigma:
        raise ValueError("need 0 < eta <= 1/sigma")


def dynamics_matrix(sigma, eta):
    """The 2x2 update matrix of one PDHG step on the (x_i, y_i) block."""
    _check_block(sigma, eta)
    a = eta * sigma
    return np.array([[1.0, -a], [a, 1.0 - 2.0 * a * a]])


def b_metric_matrix(sigma, eta):
    """The eigenbasis metric B with (1/3)|v|^2 <= v'Bv <= |v|^2 for
    eta <= 1/(2 sigma)."""
    _check_block(sigma, eta)
    a = eta * sigma
    s2 = 1.0 - a * a
    if s2 <= 0:
        raise ValueError("B is defined for eta < 1/sigma")
    return np.array([[1.0, -a], [-a, 1.0]]) / (2.0 * s2)


def b_norm_sq(v, sigma, eta):
    v = np.asarray(v, dtype=np.float64)
    B = b_metric_matrix(sigma, eta)
    return float(v @ (B @ v))


@dataclass(frozen=True)
class SpectralBlock:
    """Spectral data of one coordinate block of the PDHG dynamics."""

    sigma: float
    eta: float

    def __post_init__(self):
        _check_block(self.sigma, self.eta)

    @property
    def dynamics(self):
        return dynamics_matrix(self.sigma, self.eta)

    @property
    def b_metric(self):
        return b_metric_matrix(self.sigma, self.eta)

    @property
    def eigenvalue_modulus_sq(self):
        a = self.eta * self.sigma
        return 1.0 - a * a

    @property
    def eigenvalues(self):
        """The conjugate pair as (real, +/- imaginary) parts."""
        a = self.eta * self.sigma
        re = 1.0 - a * a
        im = a * math.sqrt(max(1.0 - a * a, 0.0))
        return re, im

    @property
    def one_minus_eigenvalue_abs(self):
        """|1 - gamma|, which equals eta * sigma."""
        re, im = self.eigenvalues
        return math.hypot(1.0 - re, im)


def theoretical_B_norm_decay(z0, sigma, eta, t):
    """Exact B-norm-squared of the iterate after t steps:
    (1 - eta^2 sigma^2)^t |z0|_B^2."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    a = eta * sigma
    return (1.0 - a * a) ** t * b_norm_sq(z0, sigma, eta)


def theoretical_average_bound(z0, sigma, eta, K):
    """Two-sided envelope (upper, lower) for the B-norm of the K-step
    running average of the block iterates.

    upper = 2 |z0|_B / (K eta sigma)
    lower = (sqrt(3)/2) eta sigma |z0|_B / (2 + K eta^2 sigma^2)

    Both hold for every K >= 1 when eta sigma <= 1/2; they only meet (up to
    constants) once K is of order 1/(eta sigma)^2.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    a = eta * sigma
    nb = math.sqrt(b_norm_sq(z0, sigma, eta))
    upper = 2.0 * nb / (K * a)
    lower = (math.sqrt(3.0) / 2.0) * a * nb / (2.0 + K * a * a)
    return upper, lower


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

# A sum of four squares in Python floats and numpy's dot product of the
# same four values differ by a few ulps at most (the dot may pair the terms
# otherwise or fuse multiply-adds).  The absolute floor covers the square
# root of a sum near the subnormal range, where a few ulps of the sum move
# its root by up to about 1e-161.
_TIE_REL, _TIE_ABS = 1e-9, 1e-150


def _tie_band(threshold):
    """(lo, hi) around ``threshold``: a scalar value below lo or above hi
    compares to it as numpy's value of it would; one in [lo, hi] must be
    tested as numpy computes it.  NaN lies in neither, and compares false
    in both."""
    margin = _TIE_REL * threshold + _TIE_ABS
    return threshold - margin, threshold + margin


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
    reads the iterate once, as Python floats, and tests the scalar values;
    one within :func:`_tie_band` of its threshold is tested as numpy
    computes it, on the block read at its indices or on the average copied
    into an array, so every decision is numpy's."""
    pending = [(j, index.tolist(), index) for j, index in enumerate(blocks[1:])]
    lo, hi = _tie_band(eps)
    a0, b0, c0, d0 = blocks[0].tolist()
    level_bands = [(level, *_tie_band(level)) for level in levels]
    mean, mean_vec = (), np.empty(4)

    def observe(t, z, average):
        nonlocal pending, mean
        zs = z.tolist()
        hit = False
        for i, (a, b, c, d), index in pending:
            za, zb, zc, zd = zs[a], zs[b], zs[c], zs[d]
            ratio = (za * za + zb * zb + zc * zc + zd * zd) / _D0SQ
            if lo <= ratio <= hi:
                v = z[index]
                ratio = float(v @ v) / _D0SQ
            if ratio <= eps:
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
            nrm = math.sqrt(ma * ma + mb * mb + mc * mc + md * md)
            while len(hits) < len(levels):
                level, level_lo, level_hi = level_bands[len(hits)]
                if level_lo <= nrm <= level_hi:
                    # the same bits as np.linalg.norm(mean)
                    mean_vec[:] = mean
                    nrm = math.sqrt(float(mean_vec @ mean_vec))
                if not nrm <= level:
                    break
                hits.append(t)
        return not pending and len(hits) == len(levels)

    return observe


def _pdhg_run(problem, eta, scheme, z0, iterations, cadence, observe):
    """Unscaled PDHG through :func:`run_restarted` with no KKT stop:
    ``observe`` sees every iteration and may end the run."""
    options = SolveOptions(StepConfig(PDHG, eta), scheme, kkt_tol=0.0,
                           iteration_limit=iterations, check_cadence=cadence)
    return run_restarted(problem, options, z0=z0, observe=observe)


def _ones(n):
    return SaddlePoint(np.ones(n), np.ones(n))


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
    run of it would.  The hook tests a block's sum of squares in Python
    floats; only when that value lies within a relative 1e-9 (plus a floor
    of 1e-150) of its threshold does it read the block as that lone run's
    4-vector (:func:`~restartlp.restarts._block_indices`) and decide on
    numpy's dot product of it, as a lone run testing ``v @ v`` would.  A
    dot product and the scalar sum differ by a few ulps at most, so
    outside that margin both decide alike.

    The average mode does not read the driver's average, which is the
    running sum of the iterates divided by K.  Its hook keeps the paper's
    incremental average zbar_K = zbar_{K-1} + (z_K - zbar_{K-1}) / K of its
    block itself, in Python floats: the subtraction, division and addition
    round as numpy's elementwise ufuncs do, so it holds their bits.  The
    rows at 1e-3 and 1e-4 are roundoff ties (|zbar_K| K / |z0| reads
    4.999999999999987 at K = 5000 and 5.000000000000052 at K = 50000), so
    sum / K, whose rounding differs, would record 50000 in place of 50001.
    Both fall within the margin above, so their norm is numpy's
    ``sqrt(zbar @ zbar)`` on the average copied into an array.

    Modes that fail to converge within ``cap`` are recorded with ``None``.
    """
    kappas = [float(k) for k in kappas]
    if not kappas:
        raise ValueError("kappa list must be nonempty")
    if any(k < 2 for k in kappas):
        raise ValueError("kappa values must be >= 2")
    if not 0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    eta = 0.5

    # block 0 is avg_kappa's; the kappas follow in the caller's order
    blocks = [generate(DiagonalBilinear((1.0 / kappa, 1.0)))[0]
              for kappa in [float(avg_kappa)] + kappas]
    problem = _stack(blocks)
    last = [None] * len(kappas)
    thresholds = sorted(avg_eps, reverse=True)
    levels = [e * _D0 for e in thresholds]
    hits = []
    observe = _stacked_observe(_block_indices(blocks), eps, levels, last, hits)
    _pdhg_run(problem, eta, RestartScheme.none(), _ones(problem.n), cap, cap, observe)
    hits += [None] * (len(levels) - len(hits))

    def average_reached_eps(t, z, average):
        avg = average()
        return float(avg @ avg) / _D0SQ <= eps

    report = Table3Report()
    for kappa, problem, last_iters in zip(kappas, blocks[1:], last):
        tstar = fixed_frequency_tstar(1.0 / eta, 0.0, 1.0 / kappa, math.exp(-1.0))
        # checkpoints every t* iterations: the fixed restart fires at inner = t*
        res = _pdhg_run(problem, eta, RestartScheme.fixed(tstar), _ones(2), cap, tstar,
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


def two_dim_toy_series(iterations=50, eta=0.2, restart_length=25,
                       start=(1.0, 1.0)):
    """Iterate paths on L(x, y) = x y: plain PDHG and fixed-frequency
    restarted PDHG.

    Returns ``(plain, restarted)`` arrays of shape (iterations + 1, 2): the
    plain path holds the iterates z^t, the restarted path the running
    average that the restart scheme tracks (reset every ``restart_length``
    steps, like the candidate it restarts to).
    """
    problem, _ = generate(DiagonalBilinear((1.0,)))
    z0 = SaddlePoint(np.array([start[0]]), np.array([start[1]]))

    def series(scheme, cadence, keep_average):
        path = np.empty((iterations + 1, 2))
        path[0] = start

        def observe(t, z, average):
            path[t] = average() if keep_average else z
            return False

        _pdhg_run(problem, eta, scheme, z0, iterations, cadence, observe)
        return path

    return (series(RestartScheme.none(), iterations, False),
            series(RestartScheme.fixed(restart_length), restart_length, True))
