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
kappa, and the average) are one run on a stacked problem with a 2x2 block
per run.  Since PDHG on a problem whose A has one entry per row and per
column, and the running average, are elementwise, each block carries
exactly the bits a run of that block alone would, and the hook reads each
block as the contiguous 4-vector that run would hold.  One run costs the
per-iteration overhead of the longest one instead of the sum of all.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .ingest import DiagonalBilinear, generate
from .lp_core import SaddlePoint, SparseMatrix, StandardFormLp
from .restarts import RestartScheme, SolveOptions, Status, fixed_frequency_tstar, run_restarted
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


def _stacked_blocks(kappas):
    """One unconstrained bilinear problem holding the two-point spectrum
    (1/kappa, 1) of every kappa as its own block, and a reader per block.

    Block j couples x_{2j}, x_{2j+1} with the duals one block further on,
    y_{2j+2}, y_{2j+3} (indices mod n), so that the last block's four
    entries sit contiguously at the x/y boundary of the flat iterate [x; y].
    ``readers[j](vec)`` returns block j of ``vec`` as a contiguous
    [x_a, x_b, y_a, y_b], the order a lone run of that block holds it in:
    a slice for the last block, a copy into a buffer of its own for the
    others.  A has one entry per row and per column, so every PDHG product
    is elementwise and each block repeats the arithmetic of its lone run.
    """
    n = 2 * len(kappas)
    sigmas = np.ravel([(1.0 / kappa, 1.0) for kappa in kappas])
    cols = np.arange(n)
    rows = (cols + 2) % n
    A = SparseMatrix(n, n, rows, cols, -sigmas)
    problem = StandardFormLp(np.zeros(n), A, np.zeros(n), nonneg=False)

    def reader(j):
        if j == len(kappas) - 1:
            return operator.itemgetter(slice(n - 2, n + 2))
        idx = np.array([2 * j, 2 * j + 1, n + 2 * j + 2, n + 2 * j + 3])
        buf = np.empty(4)
        # ndarray.take without np.take's wrapper; 'clip' skips the copy
        # through a temporary that the default mode makes for ``out``
        return lambda vec: vec.take(idx, out=buf, mode="clip")

    return problem, [reader(j) for j in range(len(kappas))]


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
    a stacked problem (:func:`_stacked_blocks`): a block per kappa, sorted
    so that the largest sits at the x/y boundary, plus the ``avg_kappa``
    block, all started from ones.  Its ``observe`` hook tests each block
    still pending against its threshold and ends the run once every row is
    known.  The result is exact, not an approximation: A has one entry per
    row, and every PDHG operation and every running-average update is
    elementwise, so each block holds the same bits as a lone run of it
    would, and each test reads the block as that lone run's contiguous
    4-vector (the same dot product on the same values).

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
    # |z0 - z*|^2 and |z0 - z*| for a block z0 = (1, 1, 1, 1)
    d0sq, d0 = 4.0, 2.0

    # block 0 is avg_kappa's; the kappas follow in increasing order
    order = sorted(range(len(kappas)), key=kappas.__getitem__)
    problem, readers = _stacked_blocks([float(avg_kappa)] + [kappas[i] for i in order])
    read_avg = readers[0]
    pending = list(zip(order, readers[1:]))
    last = [None] * len(kappas)
    thresholds = sorted(avg_eps, reverse=True)
    levels = [e * d0 for e in thresholds]
    hits = []

    def observe(t, z, avg):
        nonlocal pending
        hit = False
        for i, read in pending:
            v = read(z)
            if float(v @ v) / d0sq <= eps:
                last[i] = t
                hit = True
        if hit:
            pending = [(i, read) for i, read in pending if last[i] is None]
        if len(hits) < len(levels):
            v = read_avg(avg)
            # the same bits as np.linalg.norm(v), without its dispatch
            nrm = math.sqrt(float(v @ v))
            while len(hits) < len(levels) and nrm <= levels[len(hits)]:
                hits.append(t)
        return not pending and len(hits) == len(levels)

    _pdhg_run(problem, eta, RestartScheme.none(), _ones(problem.n), cap, cap, observe)
    hits += [None] * (len(levels) - len(hits))

    report = Table3Report()
    for kappa, last_iters in zip(kappas, last):
        problem, _ = generate(DiagonalBilinear((1.0 / kappa, 1.0)))
        tstar = fixed_frequency_tstar(1.0 / eta, 0.0, 1.0 / kappa, math.exp(-1.0))
        # checkpoints every t* iterations: the fixed restart fires at inner = t*
        res = _pdhg_run(problem, eta, RestartScheme.fixed(tstar), _ones(2), cap, tstar,
                        lambda t, z, avg: float(avg @ avg) / d0sq <= eps)
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

        def observe(t, z, avg):
            path[t] = avg if keep_average else z
            return False

        _pdhg_run(problem, eta, scheme, z0, iterations, cadence, observe)
        return path

    return (series(RestartScheme.none(), iterations, False),
            series(RestartScheme.fixed(restart_length), restart_length, True))
