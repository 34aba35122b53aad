"""Outer/inner restart loop for the primal-dual methods.

The driver runs a base method (PDHG / EGM / ADMM / bilinear PPM), keeps the
running average of the target points, and restarts the inner loop from the
average under one of four schemes: never, at a fixed inner length, when the
normalized duality gap of the average has decayed by a factor beta since the
last restart, or the flexible variant that lets the last iterate replace the
average as the restart candidate when its gap is lower.

Every LP (``nonneg=True``) with a nonzero constraint matrix is rescaled once
at the start of the solve (:func:`~restartlp.scaling.rescale`: Ruiz, then
Pock-Chambolle): A~ = D1 A D2, b~ = D1 b, c~ = D2 c.  The method steps on
the scaled problem, so iterates, anchors, restart gaps and radii live in
scaled space; the KKT errors that decide termination and fill the trace are
those of the caller's problem, and every point the solve returns is mapped
back (x = D2 x~, y = D1 y~; for ADMM x_U, x_V = D2 x~ and y = y~ / d2).
PDHG and EGM keep eta * sigma_max on the scaled matrix equal to the
caller's eta * sigma_max(A) (see :class:`~restartlp.steps.StepConfig`); ADMM
keeps its eta.  Bilinear problems (``nonneg=False``) are solved unscaled.

What depends on the matrix alone is computed once per matrix, not once per
solve: the rescaled A~ with its factors d1 and d2, the sigma_max estimates of
A and A~, and the sparse factor of A~ A~' (ADMM) or of s I + A A' (PPM) are
kept in the memo of the caller's :class:`~restartlp.lp_core.SparseMatrix`
(or of A~), so repeated solves and the runs of a tuning share them.  What
depends on eta or on b and c (b~, c~, the step operators) is built per solve.

The driver keeps the running sum of the target points since the last
restart, one addition per iteration, and divides the average out of it only
where it is read: at a checkpoint, and on the iterations where an
``observe`` hook asks for it.

Restart and termination checks happen only at checkpoints (every
``check_cadence`` iterations).  A checkpoint measures the average and the
last iterate once each: its KKT error, and its normalized gap where the
restart scheme reads it.  For PDHG, EGM and PPM that is one fused pass: the
gradient blocks c - A'y and Ax - b come from one pair of matrix-vector
products and feed both the KKT error and the gap
(:func:`~restartlp.gap.normalized_gap_lp`, one block trust-region solve by
:func:`~restartlp.gap.solve_linear_trust_region`).  For ADMM each KKT
evaluation also extracts an LP dual estimate from A A' lam = -A y: one
solve with the matrix's A A' factor, plus two products to verify its
residual.  The start point is measured only when a solve diverges before
its first checkpoint has measured anything better to return.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .gap import normalized_gap_admm, normalized_gap_lp
from .lp_core import (
    SaddlePoint,
    SparseMatrix,
    StandardFormLp,
    _dot,
    _norm,
    power_method_sigma_max,
    residuals,
    residuals_of_gradient,
)
from .scaling import Scaling, rescale
from .steps import (
    ADMM,
    PDHG,
    PPM_BILINEAR,
    AdmmOperators,
    AdmmPoint,
    StepConfig,
    StepOperators,
    _check_fits,
    admm_step,
    egm_step,
    pdhg_step,
    ppm_bilinear_step,
)

__all__ = [
    "NO_RESTART",
    "FIXED",
    "ADAPTIVE",
    "FLEXIBLE",
    "RestartScheme",
    "SolveOptions",
    "Checkpoint",
    "ConvergenceTrace",
    "Status",
    "SolveResult",
    "fixed_frequency_tstar",
    "should_restart",
    "run_restarted",
]

NO_RESTART = "none"
FIXED = "fixed"
ADAPTIVE = "adaptive"
FLEXIBLE = "flexible"

DEFAULT_BETA = math.exp(-1.0)


def _integer(name, value):
    """``value`` as an int: a Python or numpy integer, else a ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class RestartScheme:
    """Restart rule: kind plus its parameters.

    beta is the required gap-decay factor for adaptive/flexible restarts
    (default exp(-1), which optimizes the total-iteration bound); tau is
    the fixed length, an integer, Python or numpy.
    """

    kind: str
    tau: int | None = None
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        if self.kind not in (NO_RESTART, FIXED, ADAPTIVE, FLEXIBLE):
            raise ValueError(f"unknown restart scheme {self.kind!r}")
        if self.tau is not None:
            object.__setattr__(self, "tau", _integer("tau", self.tau))
        if self.kind == FIXED and (self.tau is None or self.tau < 1):
            raise ValueError("fixed restarts need tau >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")

    @staticmethod
    def none():
        return RestartScheme(NO_RESTART)

    @staticmethod
    def fixed(tau):
        return RestartScheme(FIXED, tau=tau)

    @staticmethod
    def adaptive(beta=DEFAULT_BETA):
        return RestartScheme(ADAPTIVE, beta=beta)

    @staticmethod
    def flexible(beta=DEFAULT_BETA):
        return RestartScheme(FLEXIBLE, beta=beta)


def fixed_frequency_tstar(c_constant, q_constant, alpha, beta):
    """Restart length ceil(2C(q+2) / (alpha beta)) guaranteeing a
    beta-contraction of the distance to the solution set per outer loop."""
    if c_constant <= 0 or alpha <= 0 or q_constant < 0:
        raise ValueError("constants must be positive (q nonnegative)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    return math.ceil(2.0 * c_constant * (q_constant + 2.0) / (alpha * beta))


def should_restart(scheme, outer, inner, stored_gap, gap_now, radius):
    """Whether to restart at a checkpoint in epoch ``outer``, ``inner``
    iterations after the last restart, from a candidate at ``radius`` from
    the anchor whose normalized gap is ``gap_now``.

    Fixed: after ``tau`` iterations.  Adaptive/flexible: when the candidate
    has not moved from the anchor (radius 0); else the first epoch ends at
    its first checkpoint, where no gap has been stored yet, and later epochs
    when the candidate gap is at most beta times ``stored_gap``, the gap at
    the previous restart.
    """
    if scheme.kind == NO_RESTART:
        return False
    if scheme.kind == FIXED:
        return inner >= scheme.tau
    if radius == 0.0:
        return True
    if outer == 0:
        return inner >= 1
    return gap_now <= scheme.beta * stored_gap


@dataclass
class SolveOptions:
    """What :func:`run_restarted` runs; ``iteration_limit`` and
    ``check_cadence`` are integers, Python or numpy ones."""

    step: StepConfig
    scheme: RestartScheme
    kkt_tol: float = 1e-6
    iteration_limit: int = 1_000_000
    check_cadence: int = 30

    def __post_init__(self):
        for name in ("iteration_limit", "check_cadence"):
            setattr(self, name, _integer(name, getattr(self, name)))
        if self.check_cadence < 1:
            raise ValueError("check cadence must be >= 1")
        if self.iteration_limit < 1:
            raise ValueError("iteration limit must be >= 1")
        if not self.kkt_tol >= 0.0:
            raise ValueError(f"KKT tolerance must be a number >= 0, got {self.kkt_tol!r}")


@dataclass
class Checkpoint:
    """One trace row.  ``normalized_gap`` and ``radius`` are measured on the
    problem the method steps on (the rescaled one for an LP); ``kkt_avg``
    and ``kkt_last`` are KKT errors of the caller's problem."""

    iteration: int
    outer: int
    inner: int
    normalized_gap: float
    kkt_avg: float
    kkt_last: float
    radius: float
    restarted: bool
    elapsed_seconds: float


@dataclass
class ConvergenceTrace:
    """The trace rows, one :class:`Checkpoint` per checkpoint.  A restart
    is read off its row: ``restarted`` marks it, ``inner`` is the length
    of the epoch it ends and ``iteration`` the iteration it fires at."""

    records: list = field(default_factory=list)


class Status:
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    DIVERGED = "diverged"
    STOPPED = "stopped"


@dataclass
class SolveResult:
    """Outcome of :func:`run_restarted`.  ``solution``, ``average``,
    ``last`` and ``anchors`` are points of the caller's problem; ``scaling``
    is None when the problem was solved unscaled."""

    solution: object
    status: str
    iterations: int
    trace: ConvergenceTrace
    average: object
    last: object
    kkt_avg: float
    kkt_last: float
    anchors: list
    restart_count: int
    scaling: Scaling | None = None


# ---------------------------------------------------------------------------
# Method lanes: uniform view of saddle-point and ADMM iterations
# ---------------------------------------------------------------------------


class _Lane:
    """One method on one problem, seen by the driver through flat vectors.

    The driver holds the anchor, the running sum, the average and the
    iterates as flat vectors.  ``view(vec)`` is the lane's ``point`` over
    ``vec``, whose blocks are views of it.  ``step(z)`` runs the method's
    step from the point ``z`` and returns its
    :class:`~restartlp.steps.StepOutput`, whose ``next`` and ``target`` are
    points over the flat vectors of the next iterate and the target.  PDHG,
    EGM and ADMM step through the operators the lane builds once, which own
    those vectors (see :mod:`~restartlp.steps`); PPM allocates them.
    ``measure(vec, radius)`` and ``dist(va, vb)`` evaluate vectors.
    A lane steps on the problem it was given; when that is a rescaled LP,
    ``scale`` holds the factors that take one of its vectors to the
    caller's space elementwise.  ``config`` is the step config it steps
    with, in the units of that problem.
    """

    scale = None

    def initial(self, z0):
        """The start vector: zeros, or the caller's point ``z0``, whose
        ``vec`` and blocks must have the shapes of the lane's points and
        finite entries."""
        if z0 is None:
            return np.zeros(self.size)
        for name, block in vars(self.view(np.empty(self.size))).items():
            if np.shape(getattr(z0, name, None)) != block.shape:
                raise ValueError(f"start point {name} must have shape {block.shape}")
        vec = np.array(z0.vec, dtype=np.float64)
        if not np.all(np.isfinite(vec)):
            raise ValueError("start point has a non-finite entry")
        return vec if self.scale is None else vec / self.scale

    def view(self, vec):
        return self.point.over(vec, self.n)

    def to_caller(self, vec):
        return vec if self.scale is None else vec * self.scale

    def export(self, vec):
        """A point of the caller's problem over a new vector."""
        return self.view(np.array(self.to_caller(vec)))


class _SaddleLane(_Lane):
    """PDHG, EGM or PPM."""

    point = SaddlePoint

    def __init__(self, problem, config, d1=None, d2=None):
        self.problem, self.config = problem, config
        self.n = n = problem.n
        self.size = n + problem.m
        # the steps are looked up by name at each call
        if config.method == PPM_BILINEAR:
            eta = config.eta
            self.step = lambda z: ppm_bilinear_step(problem, z, eta)
        elif config.method == PDHG:
            ops = StepOperators(problem, config)
            self.step = lambda z: pdhg_step(problem, z, config, ops)
        else:
            ops = StepOperators(problem, config)
            self.step = lambda z: egm_step(problem, z, config, ops)
        self.d1, self.d2 = d1, d2
        if d1 is not None:
            self.scale = np.concatenate([d2, d1])

    def dist(self, va, vb):
        return _norm(va - vb)

    def measure(self, vec, radius):
        """(normalized gap at ``radius``, KKT error of the caller's problem);
        the gap reads 0.0 at radius 0.  One fused pass: the gradient blocks
        c - A'y and Ax - b are formed once, from one product pair, and both
        the gap (:func:`~restartlp.gap.normalized_gap_lp`) and the KKT error
        (:func:`~restartlp.lp_core.residuals_of_gradient`) read them."""
        problem, n = self.problem, self.n
        x, y = vec[:n], vec[n:]
        g_x = problem.A.rmatvec(y)
        np.subtract(problem.c, g_x, out=g_x)
        g_y = problem.A.matvec(x)
        g_y -= problem.b
        gap = 0.0 if radius == 0.0 else normalized_gap_lp(problem, x, g_x, g_y, radius)
        kkt = residuals_of_gradient(problem, x, y, g_x, g_y, self.d1, self.d2).kkt_error
        return gap, kkt


class _AdmmLane(_Lane):
    point = AdmmPoint

    def __init__(self, problem, config, d1=None, d2=None):
        self.problem = problem
        self.config = config
        self.n = n = problem.n
        self.size = 3 * n
        ops = AdmmOperators(problem, config)
        self.projector = ops.projector
        self.step = lambda z: admm_step(problem, z, config, ops)
        self.d1, self.d2 = d1, d2
        if d2 is not None:
            # (x_U, x_V, y): y is the multiplier of x_U = x_V, so y = y~ / d2
            self.scale = np.concatenate([d2, d2, 1.0 / d2])

    def dist(self, va, vb):
        n = self.n
        eta = self.config.eta
        dxv = va[n:2 * n] - vb[n:2 * n]
        dy = va[2 * n:] - vb[2 * n:]
        return math.sqrt(eta * _dot(dxv, dxv) + _dot(dy, dy) / eta)

    def measure(self, vec, radius):
        """(normalized gap at ``radius`` in the ADMM semi-norm, KKT error of
        the caller's problem); the gap reads 0.0 at radius 0.  The KKT error
        is that of (x_V, lambda) for the LP dual estimate lambda, the
        least-squares solution of A'lambda ~ -y (one dual solve)."""
        point = self.view(vec)
        gap = 0.0
        if radius != 0.0:
            gap = normalized_gap_admm(self.problem, point, radius, self.config.eta)
        lam = self.projector.solve_normal(-self.problem.A.matvec(point.y))
        kkt = residuals(self.problem, SaddlePoint(point.x_v, lam),
                        row_scale=self.d1, col_scale=self.d2).kkt_error
        return gap, kkt


def _make_lane(problem, config):
    """The lane that runs ``config`` on ``problem``, and its
    :class:`Scaling` record.

    An LP whose matrix has a nonzero entry is rescaled; PDHG and EGM then
    step with eta~ = eta sigma(A) / sigma(A~), both sigma from
    :func:`power_method_sigma_max` at its defaults.  Other problems run as
    given, with no record.  A~ and both sigma come from the
    matrices' memos, so only the first solve on a matrix computes them; the
    lane's step operators are built here, once per solve.  A method whose
    steps do not fit the problem (:func:`~restartlp.steps._check_fits`) is
    rejected before any of that work.
    """
    _check_fits(problem, config.method)
    if not (problem.nonneg and np.any(problem.A.vals)):
        lane = (_AdmmLane if config.method == ADMM else _SaddleLane)(problem, config)
        return lane, None
    scaled, d1, d2 = rescale(problem)
    if config.method == ADMM:
        return _AdmmLane(scaled, config, d1, d2), Scaling(None, None, config.eta)
    sigma = power_method_sigma_max(problem.A)
    sigma_scaled = power_method_sigma_max(scaled.A)
    config = replace(config, eta=config.eta * (sigma / sigma_scaled))
    return _SaddleLane(scaled, config, d1, d2), Scaling(sigma, sigma_scaled, config.eta)


def _stack(problems):
    """The lone ``problems``, all LPs or all unconstrained, as the blocks
    of one problem: c and b concatenated and A block-diagonal
    (:meth:`~restartlp.lp_core.SparseMatrix.block_diagonal`), each block on
    rows and columns of its own.  Its flat vector is
    [x_1; ...; x_k; y_1; ...; y_k], whose block j :func:`_block_indices`
    locates.  A product with the stack computes each block's entries as
    the product with its lone matrix does, so a run whose other operations
    are elementwise holds in each block the bits of the lone run of that
    problem."""
    return StandardFormLp(np.concatenate([p.c for p in problems]),
                          SparseMatrix.block_diagonal([p.A for p in problems]),
                          np.concatenate([p.b for p in problems]),
                          nonneg=problems[0].nonneg)


def _block_indices(problems):
    """For each block j of the stack of ``problems`` (:func:`_stack`), the
    indices of [x_j; y_j] in the stack's flat vector: ``vec[index]`` reads
    block j, in a new array, as the flat vector of a lone run of
    problems[j]."""
    x_end = np.cumsum([p.n for p in problems])
    y_end = x_end[-1] + np.cumsum([p.m for p in problems])
    return [np.r_[xe - p.n:xe, ye - p.m:ye] for p, xe, ye in zip(problems, x_end, y_end)]


# Overflow on a diverging run is reported as Status.DIVERGED by the
# checkpoint's finite check, not by numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def run_restarted(problem, options, z0=None, observe=None):
    """Run the restarted method until the KKT tolerance, the iteration
    limit, divergence, or a stop asked for by ``observe``.

    Returns a :class:`SolveResult`; ``status`` is optimal when
    min(KKT(average), KKT(last iterate)) fell below the tolerance at a
    checkpoint.  Gap radii are the distance traveled since the last restart,
    measured in the scheme norm (Euclidean for PDHG/EGM/PPM, the ADMM
    semi-norm for ADMM); for no-restart runs the gap is evaluated at the
    last iterate with radius equal to the distance from the start.

    Every point is one flat vector, [x; y] or ADMM's [x_U; x_V; y], whose
    blocks the steps read and write as views.  The loop allocates no
    vector per iteration for PDHG, EGM and ADMM, whose step operators own
    the iterate and target buffers (PPM's step allocates its output).  It keeps, per solve, the running sum of the
    targets since the last restart, the average and a copy of the best
    point seen at a checkpoint; only a restart (a copy of the new anchor)
    and a checkpoint's measurements allocate.  Each iteration adds its target
    into the sum; the average, sum / inner, is divided out only at a
    checkpoint and when ``observe`` asks for it.  It differs from an
    incremental average at roundoff level.  A sum that overflows makes the
    average non-finite, and the next checkpoint ends the solve with
    ``Status.DIVERGED``.

    ``observe(iteration, target, average)``, if given, is called on every
    iteration after the sum has taken in the new target point, with the
    target as a flat vector of the caller's space and ``average`` a
    function of no argument that divides the average out of the sum and
    returns it as such a vector: a hook that does not call it costs no
    division.  For an unscaled problem these vectors are the solver's own
    buffers, overwritten by the next step: copy what you keep.  When the
    hook returns True the iteration becomes a terminal checkpoint and the
    solve ends with ``Status.STOPPED`` at that iteration.

    An LP is rescaled first (see the module docstring): ``z0`` and every
    returned point are in the caller's space, the KKT errors are the caller
    problem's, and gaps and radii are those of the scaled problem.
    """
    lane, scaling = _make_lane(problem, options.step)
    result = _run_lane(lane, options, z0, observe)
    return replace(result, solution=lane.export(result.solution),
                   average=lane.export(result.average), last=lane.export(result.last),
                   anchors=[lane.to_caller(a) for a in result.anchors], scaling=scaling)


@np.errstate(over="ignore", invalid="ignore")
def _run_lane(lane, options, z0=None, observe=None):
    """The restart loop of :func:`run_restarted` over ``lane``, which
    steps as its own config says (``options.step`` is not read).  Returns
    a :class:`SolveResult` in the lane's space: ``solution``, ``average``,
    ``last`` and ``anchors`` are the lane's flat vectors, not copied, and
    ``scaling`` is None."""
    scheme = options.scheme
    # the gaps the scheme reads: the average's unless it never restarts,
    # the last iterate's when it never restarts or may restart from it
    gap_of_avg = scheme.kind != NO_RESTART
    gap_of_last = scheme.kind in (NO_RESTART, FLEXIBLE)

    anchor_vec = lane.initial(z0)
    anchors = [anchor_vec]
    cur, cur_point = anchor_vec, lane.view(anchor_vec)
    # the running sum of the targets since the last restart; the average is
    # divided out of it only where it is read
    target_sum = np.empty(lane.size)
    avg = np.empty(lane.size)
    trace = ConvergenceTrace()
    start = time.perf_counter()

    outer = 0
    inner = 0
    total = 0
    stored_gap = None
    # the best point a checkpoint has measured, or the start, whose KKT
    # error only a divergence at the first checkpoint reads
    good_vec, good_kkt = anchor_vec.copy(), None

    def finish(status, sol_vec, kkt_avg, kkt_last):
        return SolveResult(
            solution=sol_vec,
            status=status,
            iterations=total,
            trace=trace,
            average=avg,
            last=cur,
            kkt_avg=kkt_avg,
            kkt_last=kkt_last,
            anchors=anchors,
            restart_count=outer,
        )

    def average():
        """The average for ``observe``, in the caller's space."""
        return lane.to_caller(np.divide(target_sum, inner, out=avg))

    # loop invariants, bound once
    step, add = lane.step, np.add
    cadence, limit = options.check_cadence, options.iteration_limit
    stop = False
    while True:
        out = step(cur_point)
        cur_point, tvec = out.next, out.target.vec
        cur = cur_point.vec
        total += 1
        inner += 1
        if inner == 1:
            np.copyto(target_sum, tvec)
        else:
            add(target_sum, tvec, out=target_sum)
        check = inner % cadence == 0 or total >= limit
        if observe is not None:
            stop = bool(observe(total, lane.to_caller(tvec), average))
        if not (check or stop):
            continue

        # ---- checkpoint ----
        np.divide(target_sum, inner, out=avg)
        if not (np.isfinite(cur).all() and np.isfinite(avg).all()):
            if good_kkt is None:
                good_kkt = lane.measure(good_vec, 0.0)[1]
            return finish(Status.DIVERGED, good_vec, good_kkt, good_kkt)

        # each point is measured once
        radius_avg = lane.dist(avg, anchor_vec)
        radius_last = lane.dist(cur, anchor_vec)
        gap_avg, kkt_avg = lane.measure(avg, radius_avg if gap_of_avg else 0.0)
        gap_last, kkt_last = lane.measure(cur, radius_last if gap_of_last else 0.0)

        # the restart candidate: the last iterate when never restarting,
        # else the average, or under flexible the last iterate if its gap
        # is lower
        if scheme.kind == NO_RESTART:
            cand_vec, cand_radius, gap_now = cur, radius_last, gap_last
        else:
            cand_vec, cand_radius, gap_now = avg, radius_avg, gap_avg
            if scheme.kind == FLEXIBLE and radius_last > 0.0 and gap_last < gap_now:
                cand_vec, cand_radius, gap_now = cur, radius_last, gap_last

        # the end of the run, if this checkpoint is one
        status = (Status.STOPPED if stop
                  else Status.OPTIMAL if min(kkt_avg, kkt_last) <= options.kkt_tol
                  else Status.ITERATION_LIMIT if total >= limit else None)
        restart_now = status is None and should_restart(scheme, outer, inner, stored_gap,
                                                        gap_now, cand_radius)
        trace.records.append(Checkpoint(
            iteration=total,
            outer=outer,
            inner=inner,
            normalized_gap=gap_now,
            kkt_avg=kkt_avg,
            kkt_last=kkt_last,
            radius=cand_radius,
            restarted=restart_now,
            elapsed_seconds=time.perf_counter() - start,
        ))

        best_vec = avg if kkt_avg <= kkt_last else cur
        if status is not None:
            return finish(status, best_vec, kkt_avg, kkt_last)
        np.copyto(good_vec, best_vec)
        good_kkt = min(kkt_avg, kkt_last)

        if restart_now:
            anchor_vec = cand_vec.copy()
            anchors.append(anchor_vec)
            stored_gap = gap_now
            outer += 1
            inner = 0
            cur, cur_point = anchor_vec, lane.view(anchor_vec)

