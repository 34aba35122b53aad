"""Outer/inner restart loop for the primal-dual methods.

The driver runs a base method (PDHG / EGM / ADMM / bilinear PPM), keeps the
running average of the target points, and restarts the inner loop from the
average under one of four schemes: never, at a fixed inner length, when the
normalized duality gap of the average has decayed by a factor beta since the
last restart, or the flexible variant that lets the last iterate replace the
average as the restart candidate when its gap is lower.

Restart and termination checks happen only at checkpoints (every
``check_cadence`` iterations); each checkpoint costs a handful of
matrix-vector products which the gap and KKT evaluations share.  For ADMM
each KKT evaluation also extracts an LP dual estimate from A A' lam = -A y:
one back-solve with the A A' factor built at the start of the solve, plus
two products to verify its residual.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .gap import normalized_gap_admm, normalized_gap_lp
from .lp_core import NormSpec, SaddlePoint, norm_value, residuals
from .steps import (
    ADMM,
    EGM,
    PDHG,
    PPM_BILINEAR,
    AdmmPoint,
    AdmmState,
    NormalFactor,
    StepConfig,
    admm_step,
    egm_step,
    initial_admm_state,
    pdhg_step,
    ppm_bilinear_step,
)

__all__ = [
    "NO_RESTART",
    "FIXED",
    "ADAPTIVE",
    "FLEXIBLE",
    "RestartScheme",
    "RestartState",
    "SolveOptions",
    "Checkpoint",
    "ConvergenceTrace",
    "Status",
    "SolveResult",
    "fixed_frequency_tstar",
    "should_restart",
    "run_restarted",
    "theoretical_linear_rate_check",
    "RateCheckReport",
]

NO_RESTART = "none"
FIXED = "fixed"
ADAPTIVE = "adaptive"
FLEXIBLE = "flexible"

DEFAULT_BETA = math.exp(-1.0)


@dataclass(frozen=True)
class RestartScheme:
    """Restart rule: kind plus its parameters.

    beta is the required gap-decay factor for adaptive/flexible restarts
    (default exp(-1), which optimizes the total-iteration bound); tau0 is
    the first-epoch length of the adaptive schemes; tau the fixed length.
    """

    kind: str
    tau: int | None = None
    beta: float = DEFAULT_BETA
    tau0: int = 1

    def __post_init__(self):
        if self.kind not in (NO_RESTART, FIXED, ADAPTIVE, FLEXIBLE):
            raise ValueError(f"unknown restart scheme {self.kind!r}")
        if self.kind == FIXED and (self.tau is None or self.tau < 1):
            raise ValueError("fixed restarts need tau >= 1")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.tau0 < 1:
            raise ValueError("tau0 must be >= 1")

    @staticmethod
    def none():
        return RestartScheme(NO_RESTART)

    @staticmethod
    def fixed(tau):
        return RestartScheme(FIXED, tau=int(tau))

    @staticmethod
    def adaptive(beta=DEFAULT_BETA, tau0=1):
        return RestartScheme(ADAPTIVE, beta=beta, tau0=tau0)

    @staticmethod
    def flexible(beta=DEFAULT_BETA, tau0=1):
        return RestartScheme(FLEXIBLE, beta=beta, tau0=tau0)


@dataclass
class RestartState:
    """Per-outer-loop bookkeeping consulted by the restart rule."""

    outer: int
    inner: int
    anchor: np.ndarray | None = None
    prev_anchor: np.ndarray | None = None
    gap_at_restart: float | None = None
    average: np.ndarray | None = None
    restart_lengths: list = field(default_factory=list)


def fixed_frequency_tstar(c_constant, q_constant, alpha, beta):
    """Restart length ceil(2C(q+2) / (alpha beta)) guaranteeing a
    beta-contraction of the distance to the solution set per outer loop."""
    if c_constant <= 0 or alpha <= 0 or q_constant < 0:
        raise ValueError("constants must be positive (q nonnegative)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    return math.ceil(2.0 * c_constant * (q_constant + 2.0) / (alpha * beta))


def should_restart(state, scheme, gap_now):
    """Evaluate the restart condition at a checkpoint.

    Adaptive/flexible: first epoch restarts once the inner count reaches
    tau0; later epochs when the candidate gap is at most beta times the gap
    stored at the previous restart.
    """
    if scheme.kind == NO_RESTART:
        return False
    if scheme.kind == FIXED:
        return state.inner >= scheme.tau
    if state.outer == 0:
        return state.inner >= scheme.tau0
    return gap_now <= scheme.beta * state.gap_at_restart


@dataclass
class SolveOptions:
    step: StepConfig
    scheme: RestartScheme
    kkt_tol: float = 1e-6
    iteration_limit: int = 1_000_000
    check_cadence: int = 30
    trace_cadence: int = 1

    def __post_init__(self):
        if self.check_cadence < 1:
            raise ValueError("check cadence must be >= 1")
        if self.trace_cadence < 1:
            raise ValueError("trace cadence must be >= 1")
        if self.iteration_limit < 1:
            raise ValueError("iteration limit must be >= 1")


@dataclass
class Checkpoint:
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
    records: list = field(default_factory=list)
    restart_lengths: list = field(default_factory=list)
    restart_iterations: list = field(default_factory=list)


class Status:
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    DIVERGED = "diverged"


@dataclass
class SolveResult:
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


# ---------------------------------------------------------------------------
# Method lanes: uniform view of saddle-point and ADMM iterations
# ---------------------------------------------------------------------------


class _SaddleLane:
    def __init__(self, problem, config):
        self.problem = problem
        self.config = config
        if config.method == PDHG:
            self._step = lambda z: pdhg_step(problem, z, config)
        elif config.method == EGM:
            self._step = lambda z: egm_step(problem, z, config)
        elif config.method == PPM_BILINEAR:
            factor = NormalFactor(problem.A, 1.0 / (config.eta * config.eta))
            self._step = lambda z: ppm_bilinear_step(problem, z, config.eta, factor)
        else:
            raise ValueError(f"not a saddle-point method: {config.method}")
        self.n = problem.n

    def initial(self, z0):
        return z0.copy() if z0 is not None else SaddlePoint.zeros(self.problem)

    def step(self, point):
        return self._step(point)

    def to_vec(self, point):
        return point.as_vector()

    def from_vec(self, vec):
        return SaddlePoint.from_vector(vec, self.n)

    def dist(self, va, vb):
        return float(np.linalg.norm(va - vb))

    def gap(self, vec, radius):
        z = self.from_vec(vec)
        ax = self.problem.A.matvec(z.x)
        aty = self.problem.A.rmatvec(z.y)
        rho = normalized_gap_lp(self.problem, z, radius, ax=ax, aty=aty).rho
        kkt = residuals(self.problem, z, ax=ax, aty=aty).kkt_error
        return rho, kkt

    def kkt(self, vec):
        return residuals(self.problem, self.from_vec(vec)).kkt_error


class _AdmmLane:
    def __init__(self, problem, config, projector_tol=1e-10):
        self.problem = problem
        self.config = config
        self.n = problem.n
        self.state = None
        self.projector_tol = projector_tol

    def initial(self, z0):
        st = initial_admm_state(self.problem, tol=self.projector_tol)
        if z0 is not None:
            st = AdmmState(np.asarray(z0.x_u, dtype=float).copy(),
                           np.asarray(z0.x_v, dtype=float).copy(),
                           np.asarray(z0.y, dtype=float).copy(),
                           st.projector)
        self.state = st
        return st.point().copy()

    def step(self, point):
        out, self.state = admm_step(self.problem, self.state, self.config)
        return out

    def to_vec(self, point):
        return point.as_vector()

    def from_vec(self, vec):
        return AdmmPoint.from_vector(vec, self.n)

    def dist(self, va, vb):
        n = self.n
        eta = self.config.eta
        dxv = va[n:2 * n] - vb[n:2 * n]
        dy = va[2 * n:] - vb[2 * n:]
        return math.sqrt(eta * float(dxv @ dxv) + float(dy @ dy) / eta)

    def gap(self, vec, radius):
        point = self.from_vec(vec)
        rho = normalized_gap_admm(self.problem, point, radius, self.config.eta).rho
        return rho, self.kkt(vec)

    def kkt(self, vec):
        # LP dual estimate: least-squares lambda with A'lambda ~ -y, then the
        # standard-form residuals of (x_V, lambda)
        point = self.from_vec(vec)
        rhs = -self.problem.A.matvec(point.y)
        lam = self.state.projector.solve_normal(rhs)
        return residuals(self.problem, SaddlePoint(point.x_v, lam)).kkt_error

    def reset_to(self, vec):
        point = self.from_vec(vec)
        self.state = AdmmState(point.x_u, point.x_v, point.y, self.state.projector)


def _make_lane(problem, config, projector_tol=1e-10):
    if config.method == ADMM:
        return _AdmmLane(problem, config, projector_tol)
    return _SaddleLane(problem, config)


# Overflow on a diverging run is reported as Status.DIVERGED by the
# checkpoint's finite check, not by numpy warnings.
@np.errstate(over="ignore", invalid="ignore")
def run_restarted(problem, options, z0=None):
    """Run the restarted method until the KKT tolerance, the iteration
    limit, or divergence.

    Returns a :class:`SolveResult`; ``status`` is optimal when
    min(KKT(average), KKT(last iterate)) fell below the tolerance at a
    checkpoint.  Gap radii are the distance traveled since the last restart,
    measured in the scheme norm (Euclidean for PDHG/EGM/PPM, the ADMM
    semi-norm for ADMM); for no-restart runs the gap is evaluated at the
    last iterate with radius equal to the distance from the start.
    """
    lane = _make_lane(problem, options.step)
    scheme = options.scheme
    adaptive = scheme.kind in (ADAPTIVE, FLEXIBLE)

    current = lane.initial(z0)
    anchor_vec = lane.to_vec(current).copy()
    anchors = [anchor_vec.copy()]
    trace = ConvergenceTrace()
    start = time.perf_counter()

    outer = 0
    inner = 0
    total = 0
    avg = None
    stored_gap = None
    checkpoints = 0
    last_good = (anchor_vec.copy(), lane.kkt(anchor_vec))

    def finish(status, sol_vec, kkt_avg, kkt_last):
        avg_pt = lane.from_vec(avg) if avg is not None else lane.from_vec(anchor_vec)
        return SolveResult(
            solution=lane.from_vec(sol_vec),
            status=status,
            iterations=total,
            trace=trace,
            average=avg_pt,
            last=lane.from_vec(lane.to_vec(current)),
            kkt_avg=kkt_avg,
            kkt_last=kkt_last,
            anchors=anchors,
            restart_count=len(trace.restart_lengths),
        )

    while True:
        out = lane.step(current)
        current = out.next
        total += 1
        inner += 1
        tvec = lane.to_vec(out.target)
        if avg is None or inner == 1:
            avg = tvec.copy()
        else:
            avg += (tvec - avg) / inner

        if inner % options.check_cadence != 0 and total < options.iteration_limit:
            continue

        # ---- checkpoint ----
        checkpoints += 1
        cur_vec = lane.to_vec(current)
        if not (np.all(np.isfinite(cur_vec)) and np.all(np.isfinite(avg))):
            vec, kkt = last_good
            return finish(Status.DIVERGED, vec, kkt, kkt)

        radius_avg = lane.dist(avg, anchor_vec)
        radius_last = lane.dist(cur_vec, anchor_vec)

        if scheme.kind == NO_RESTART:
            cand_vec, cand_radius = cur_vec, radius_last
        else:
            cand_vec, cand_radius = avg, radius_avg

        if cand_radius == 0.0:
            gap_now = 0.0
            kkt_of_cand = lane.kkt(cand_vec)
            kkt_avg = kkt_of_cand if cand_vec is avg else lane.kkt(avg)
            kkt_last = lane.kkt(cur_vec) if cand_vec is not cur_vec else kkt_of_cand
        else:
            gap_now, kkt_cand = lane.gap(cand_vec, cand_radius)
            if scheme.kind == NO_RESTART:
                kkt_last = kkt_cand
                kkt_avg = lane.kkt(avg)
            else:
                kkt_avg = kkt_cand
                kkt_last = lane.kkt(cur_vec)

        if scheme.kind == FLEXIBLE and radius_last > 0.0 and cand_radius > 0.0:
            gap_last, _ = lane.gap(cur_vec, radius_last)
            if gap_last < gap_now:
                cand_vec, cand_radius, gap_now = cur_vec, radius_last, gap_last

        state = RestartState(
            outer=outer,
            inner=inner,
            anchor=anchor_vec,
            prev_anchor=anchors[-2] if len(anchors) > 1 else None,
            gap_at_restart=stored_gap,
            average=avg,
            restart_lengths=trace.restart_lengths,
        )
        restart_now = should_restart(state, scheme, gap_now)
        if adaptive and cand_radius == 0.0:
            restart_now = True
        terminal = (min(kkt_avg, kkt_last) <= options.kkt_tol
                    or total >= options.iteration_limit)
        restart_now = restart_now and not terminal

        if checkpoints % options.trace_cadence == 0 or restart_now or terminal:
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

        best_vec = avg if kkt_avg <= kkt_last else cur_vec
        last_good = (best_vec.copy(), min(kkt_avg, kkt_last))

        if min(kkt_avg, kkt_last) <= options.kkt_tol:
            return finish(Status.OPTIMAL, best_vec, kkt_avg, kkt_last)
        if total >= options.iteration_limit:
            return finish(Status.ITERATION_LIMIT, best_vec, kkt_avg, kkt_last)

        if restart_now:
            trace.restart_lengths.append(inner)
            trace.restart_iterations.append(total)
            anchor_vec = cand_vec.copy()
            anchors.append(anchor_vec.copy())
            stored_gap = gap_now
            outer += 1
            inner = 0
            avg = None
            if isinstance(lane, _AdmmLane):
                lane.reset_to(anchor_vec)
                current = lane.state.point()
            else:
                current = lane.from_vec(anchor_vec)


# ---------------------------------------------------------------------------
# Closed-form convergence checks on diagonal bilinear instances
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    outer: int
    distance: float
    bound: float
    ok: bool


@dataclass
class RateCheckReport:
    tstar: int
    alpha: float
    fixed_epochs: list
    fixed_ok: bool
    adaptive_lengths: list
    adaptive_ok: bool


def _method_norm(config, problem):
    if config.method in (PDHG, EGM):
        # EGM's guarantee is Euclidean; PDHG's is its M-norm
        if config.method == PDHG:
            return NormSpec.pdhg(config.eta, config.omega)
        return NormSpec.euclidean()
    if config.method == PPM_BILINEAR:
        return NormSpec.euclidean()
    return NormSpec.admm(config.eta)


def theoretical_linear_rate_check(problem, optimum, config, beta=DEFAULT_BETA,
                                  alpha=None, epochs=20, z0=None):
    """Check the restart theory on an instance with known sharpness.

    Intended for diagonal bilinear problems, where the sharpness constant is
    the smallest interaction coefficient and the solution set is the origin.
    Runs fixed-frequency restarts at t* and asserts the geometric decay of
    anchor distances in the method norm, then runs adaptive restarts and
    asserts every restart length from the second epoch on is at most t*.
    Failures are returned as per-epoch records, not raised.
    """
    if alpha is None:
        raise ValueError("alpha (sharpness constant) is required")
    tstar = fixed_frequency_tstar(config.sufficient_decay_c,
                                  config.target_proximity_q, alpha, beta)
    norm = _method_norm(config, problem)
    opt_vec = optimum.as_vector()

    def dist_to_opt(vec):
        z = SaddlePoint.from_vector(vec - opt_vec, problem.n)
        return norm_value(norm, problem, z)

    fixed_opts = SolveOptions(
        step=config,
        scheme=RestartScheme.fixed(tstar),
        kkt_tol=0.0,
        iteration_limit=(epochs + 1) * tstar,
        check_cadence=1,
        trace_cadence=tstar,
    )
    res_fixed = run_restarted(problem, fixed_opts, z0=z0)
    d0 = dist_to_opt(res_fixed.anchors[0])
    records = []
    all_ok = True
    for nidx, anchor in enumerate(res_fixed.anchors):
        bound = (beta ** nidx) * d0 * (1.0 + 1e-6)
        dist = dist_to_opt(anchor)
        ok = dist <= bound
        all_ok = all_ok and ok
        records.append(EpochRecord(nidx, dist, bound, ok))

    adapt_opts = SolveOptions(
        step=config,
        scheme=RestartScheme.adaptive(beta=beta, tau0=1),
        kkt_tol=0.0,
        iteration_limit=epochs * tstar,
        check_cadence=1,
        trace_cadence=max(tstar, 1),
    )
    res_adapt = run_restarted(problem, adapt_opts, z0=z0)
    lengths = list(res_adapt.trace.restart_lengths)
    adaptive_ok = all(length <= tstar for length in lengths[1:])

    return RateCheckReport(
        tstar=tstar,
        alpha=alpha,
        fixed_epochs=records,
        fixed_ok=all_ok,
        adaptive_lengths=lengths,
        adaptive_ok=adaptive_ok,
    )
