"""Penalty minimization: alternating gradient steps and negative-curvature steps.

The main loop takes Armijo-backtracked gradient steps while the penalty
gradient is large, and unit-norm eigensteps along the most negative
Hessian direction once it is small; both backtrackings additionally force
the next iterate to keep ||h|| <= radius. An outer plateau scheme reruns
the loop with geometrically growing penalty parameter and quartically
growing iteration budgets when no valid penalty parameter is known ahead
of time. A fourth-order integrator for the constraint-violation gradient
flow provides feasibility restoration.
"""

import json
import math
from collections import deque
from typing import List, NamedTuple, Optional

import numpy as np

from .criticality import CriticalityCertificate, certify
from .exceptions import (
    BacktrackFailureError,
    DecreaseBelowRoundingError,
    NumericalFailureError,
    RankDeficiencyError,
    StepSizeError,
)
from .linalg import _by_identity, min_eig_above, vector_norm
from .linalg import _sym_eig_min as sym_eig_min  # traced by this name
from .penalty import (
    _finite,
    _read_h,
    beta_thresholds,
    evaluate,
    in_region,
)
from .penalty import _penalty_hess as penalty_hess  # (H, record with M); traced by this name

__all__ = [
    "SolverConfig",
    "IterationRecord",
    "PlateauStage",
    "RunTrace",
    "gradient_backtrack",
    "eigen_backtrack",
    "gradient_eigenstep",
    "plateau",
    "restore_feasibility",
    "audit",
    "audit_restore",
]


# The computed decrease g(x) - g(x + alpha d) carries a rounding error of a
# few ulps of g; a required decrease below that cannot be verified.
ROUNDING_ULPS = 4.0

# The relative slack of every bound checked after the fact: a record holds
# sqrt(d.d) where the search tested d.d, so a replay can miss by rounding.
BOUND_SLACK = 1e-12

# L-BFGS in _descend: pairs kept, a pair's curvature test, the safeguards kappa and M.
LBFGS_PAIRS, PAIR_CURVATURE = 5, 1e-12
DESCENT_KAPPA, DIRECTION_BOUND = 1e-4, 1e4

# restore_feasibility's work. A t_end / step above RESTORE_STEPS is refused before any
# step; RESTORE_ATTEMPTS caps one run's RK4 steps, rejected ones included. An accepted step
# doubles dt back to step, so at the budget the cap admits a rejection before each half step.
RESTORE_STEPS, RESTORE_ATTEMPTS = 10**5, 4 * 10**5


class SolverConfig(NamedTuple):
    """Tolerances, line-search constants, and budgets for one solve.

    eps2 = inf turns off eigensteps (pure first-order variant). The
    line-search defaults are conventional; the theory only constrains the
    open intervals (c1 in (0,1), c2 in (0,1/2), shrink factors in (0,1)).
    """

    eps1: float = 1e-5
    eps2: float = math.inf
    beta: float = 1.0
    c1: float = 1e-4
    c2: float = 0.4
    tau1: float = 0.5
    tau2: float = 0.5
    alpha01: float = 1.0
    alpha02: float = 1.0
    max_iters: int = 20000
    max_backtracks: int = 60

    def validate(self):
        for name in ("beta", "c1", "c2", "tau1", "tau2", "alpha01", "alpha02",
                     "max_iters", "max_backtracks"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError("%s must be finite" % name)
        if not self.eps1 > 0:
            raise ValueError("eps1 must be positive")
        if not self.eps2 > 0:
            raise ValueError("eps2 must be positive (inf allowed)")
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.c1 < 1:
            raise ValueError("c1 must lie in (0, 1)")
        if not 0 < self.c2 < 0.5:
            raise ValueError("c2 must lie in (0, 1/2)")
        if not 0 < self.tau1 < 1 or not 0 < self.tau2 < 1:
            raise ValueError("shrink factors must lie in (0, 1)")
        if not self.alpha01 > 0 or not self.alpha02 > 0:
            raise ValueError("initial step sizes must be positive")
        if self.max_iters < 0 or self.max_backtracks < 0:
            raise ValueError("iteration budgets must be nonnegative")

    def as_dict(self):
        return self._asdict() | {"eps2": None if math.isinf(self.eps2) else self.eps2}


class IterationRecord(NamedTuple):
    """One accepted step (or the terminal point) of a solve; step_len is alpha along d."""

    k: int
    kind: str  # "gradient" | "eigen" | "terminal"
    step_len: float
    g_before: float
    g_after: float
    grad_norm: float
    h_norm: float
    curvature: Optional[float]
    backtracks: int
    slope: Optional[float] = None  # -grad g . d, at gradient steps only, as is d_norm = ||d||
    d_norm: Optional[float] = None

    def as_dict(self):
        return {name: value for name, value in zip(self._fields, self) if value is not None}


class PlateauStage(NamedTuple):
    """Bookkeeping for one constant-beta stretch of the plateau scheme."""

    index: int
    beta: float
    lp: float
    iters: int
    # "converged" | "b_trigger" | "budget" | "backtrack_failure" | "tolerance_unreachable"
    stop_reason: str
    b_value: Optional[float]

    def as_dict(self):
        return self._asdict()


@_by_identity
class RunTrace(NamedTuple):
    """Per-iteration records plus the final point and its certificate.

    termination is one of "converged", "max_iters", "rank_deficient", "beta_too_small",
    "tolerance_unreachable". The last is a failed search that _backtrack's rounding rule
    puts out of reach, whatever beta is. Plateau runs additionally carry the per-plateau
    schedule; their records concatenate all plateaus (the k index restarts at each plateau).
    A plateau run stopped by its plateau cap, or by a schedule that cannot grow any further,
    has termination "max_plateaus"; one whose backtracking failed at a beta for which the
    trial budget, not beta, is too short has termination "trial_budget". The curvature of
    the final point is the certificate's min_eig, measured by a second-order run only.
    """

    config: SolverConfig
    records: List[IterationRecord]
    final_x: np.ndarray
    final_certificate: Optional[CriticalityCertificate]
    termination: str
    plateaus: Optional[List[PlateauStage]] = None

    def iteration_counts(self):
        grad = sum(1 for r in self.records if r.kind == "gradient")
        eig = sum(1 for r in self.records if r.kind == "eigen")
        return grad + eig, grad, eig

    def as_dict(self):
        out = {
            "config": self.config.as_dict(),
            "records": [r.as_dict() for r in self.records],
            "final_x": [float(v) for v in np.asarray(self.final_x).ravel()],
            "certificate": None
            if self.final_certificate is None
            else self.final_certificate.as_dict(),
            "termination": self.termination,
        }
        if self.plateaus is not None:
            out["plateaus"] = [s.as_dict() for s in self.plateaus]
        return out

    def to_json(self):
        return json.dumps(self.as_dict())


def _backtrack(problem, ev, d, alpha0, tau, required_decrease, cfg, what):
    """First alpha in {alpha0 * tau^j} whose trial ev.x + alpha*d stays in the region
    and decreases g by at least required_decrease(alpha), and by more than 0: a
    required decrease that underflows to 0 accepts no null step.

    The rounding rule: a failed search whose required_decrease(alpha0), at its
    one start, is at most ROUNDING_ULPS ulps of g raises
    DecreaseBelowRoundingError: no trial could show a decrease above rounding.
    """
    alpha = alpha0
    for j in range(cfg.max_backtracks + 1):
        x_next = ev.x + alpha * d
        read = _read_h(problem, x_next)
        if read[2]:  # inside: the trial's evaluation takes this read rather than its own
            trial = evaluate(problem, x_next, ev.beta, with_grad=False, read=read)
            decrease = ev.g_val - trial.g_val
            if decrease > 0.0 and decrease >= required_decrease(alpha):
                return alpha, trial, j
        alpha *= tau
    if required_decrease(alpha0) <= ROUNDING_ULPS * math.ulp(ev.g_val):
        raise DecreaseBelowRoundingError(
            "no acceptable %s: a step of %g had to decrease g=%r by %.3e, below "
            "rounding" % (what, alpha0, ev.g_val, required_decrease(alpha0))
        )
    raise BacktrackFailureError(
        "no acceptable %s within %d backtracks" % (what, cfg.max_backtracks)
    )


def gradient_backtrack(problem, ev, cfg, d=None):
    """First member of {alpha01 * tau1^j} passing Armijo decrease and the region test.

    Trials are ev.x + alpha d, d = -grad g by default, and Armijo reads g(x) -
    g(x + alpha d) >= c1 alpha slope; slope = -grad g . d must be positive.
    ev is the current point's PenaltyEval with its gradient; its point, beta,
    value and gradient are read, never recomputed. Returns (alpha, trial,
    backtracks), where trial is the accepted point's value-only PenaltyEval
    (trial.x is the point); evaluate() completes it with its gradient. Raises
    BacktrackFailureError once the trial budget is exhausted, which signals
    that beta is likely below the pointwise exactness threshold (or
    numerical trouble); its subclass DecreaseBelowRoundingError under
    _backtrack's rounding rule.
    """
    d = -ev.grad_g if d is None else d
    slope = -float(ev.grad_g.dot(d))
    return _backtrack(problem, ev, d, cfg.alpha01, cfg.tau1,
                      lambda a: cfg.c1 * a * slope, cfg, "gradient step")


def eigen_backtrack(problem, ev, d, hess_quad, cfg):
    """First member of {alpha02 * tau2^j} passing curvature decrease and the region test.

    ev is the current point's PenaltyEval (value-only suffices). d must be
    a unit vector with <d, grad g(x)> <= 0 and hess_quad the (negative)
    curvature <d, H d>, H being penalty_hess at x (the solver passes its
    smallest eigenvalue). Each trial is accepted on g's own decrease, so
    monotonicity never rests on hess_quad. Returns (alpha, trial,
    backtracks) as gradient_backtrack does.
    """
    return _backtrack(problem, ev, np.asarray(d, dtype=float), cfg.alpha02, cfg.tau2,
                      lambda a: -cfg.c2 * a * a * hess_quad, cfg, "eigenstep")


def _violations(where, checks):
    """A "where: clause: value > bound" line per (clause, value, bound) whose value
    exceeds bound by more than BOUND_SLACK of it; a NaN exceeds every bound."""
    return ["%s: %s: %r > %r" % (where, c, v, b) for c, v, b in checks
            if not v <= b + BOUND_SLACK * abs(b)]


def _assert_first_order_bounds(problem, ev, cert, cfg):
    """The termination of a converged run: "converged", or "beta_too_small" below the thresholds.

    With beta above the pointwise thresholds, a small penalty gradient
    forces small ||h|| and small layered gradient; violation indicates a
    broken gradient computation, so it raises rather than passing silently.
    At or below them the bounds need not hold, and a point that fails its
    first-order certificate is beta_too_small.
    """
    th = beta_thresholds(problem, ev)
    if cfg.beta <= max(th.beta2, th.beta3):
        return "converged" if cert.focp_pass else "beta_too_small"
    bound_h = cfg.eps1 / (cfg.beta * th.sigma_min)
    bound_g = (1.0 + th.c_lambda / (cfg.beta * th.sigma_min)) * cfg.eps1
    bad = _violations("first-order certificate bounds violated at termination",
                      [("||h||", cert.eps0_measured, bound_h),
                       ("||grad_M f||", cert.eps1_measured, bound_g)])
    if bad:
        raise NumericalFailureError("; ".join(bad))
    return "converged"


def _check_inputs(problem, x0, cfg):
    """Check cfg and x0 before a run evaluates anything; returns x0 as an array."""
    cfg.validate()
    if cfg.eps1 > problem.region.radius / 2.0:
        raise ValueError(
            "eps1=%g violates the requirement eps1 <= R/2 (R=%g)"
            % (cfg.eps1, problem.region.radius)
        )
    return _check_start(problem, x0)


def _check_start(problem, x0):
    """x0 as an array; ValueError unless it lies in the region (in_region)."""
    x0 = np.asarray(x0, dtype=float)
    if not in_region(problem, x0):
        raise _outside(problem)
    return x0


def _outside(problem):
    return ValueError("x0 lies outside the region ||h|| <= %g" % problem.region.radius)


def _terminal(records, ev, reason, k):
    records.append(IterationRecord(k, "terminal", 0.0, ev.g_val, ev.g_val, ev.grad_norm,
                                   ev.h_norm, None, 0))
    return ev, reason


def _two_loop(pairs, grad):
    """-H grad by L-BFGS's two-loop recursion over pairs (s, y, s.y, y.y), H0 = (s.y / y.y) I
    from the newest.

    s.y and y.y are floats that _gradient_step formed for the pair test and ||y||; the
    recursion's scalars are floats too, whose IEEE arithmetic is NumPy's bit for bit. A y.y
    that underflows to 0 gives H0 = inf I, as NumPy's division by zero does.
    """
    q, coefs = -grad, []
    for s, y, sy, _ in reversed(pairs):
        a = float(s.dot(q)) / sy
        q -= a * y
        coefs.append(a)
    _, _, sy, yy = pairs[-1]
    q *= sy / yy if yy else math.inf
    for (s, y, sy, _), a in zip(pairs, reversed(coefs)):
        q += (a - float(y.dot(q)) / sy) * s
    return q


def _gradient_step(pairs, prev, ev, alpha01):
    """(d, slope, ||d||) of the gradient search at ev after a step from prev (see _descend)."""
    if prev is not None:
        s, y = ev.x - prev.x, ev.grad_g - prev.grad_g
        yy = float(y.dot(y))
        s_norm, y_norm = vector_norm(s), math.sqrt(yy)  # y_norm is vector_norm(y)
        if (sy := float(s.dot(y))) > PAIR_CURVATURE * s_norm * y_norm:
            pairs.append((s, y, sy, yy))
    if pairs:
        d = _two_loop(pairs, ev.grad_g)
        slope, d_norm = -float(ev.grad_g.dot(d)), vector_norm(d)
        if slope >= DESCENT_KAPPA * ev.grad_norm**2 and d_norm <= DIRECTION_BOUND * ev.grad_norm:
            return d, slope, d_norm
    scale = 1.0
    if prev is not None and y_norm > 0.0:
        scale = min(1.0, max(DESCENT_KAPPA, s_norm / (alpha01 * y_norm)))
    return -scale * ev.grad_g, scale * ev.grad_norm**2, scale * ev.grad_norm


def _descend(problem, x0, cfg, records, stop=None):
    """The gradient/eigenstep loop from x0 at penalty parameter cfg.beta.

    x0 is a point or a PenaltyEval (the last iterate of a plateau stage),
    which evaluate() re-bases at cfg.beta without redoing its point.
    Appends a record per accepted step and then a terminal record (none
    when x0 itself is rank deficient). Returns (ev, reason): the last
    iterate's PenaltyEval (None when x0 is rank deficient), holding lag_hess
    if penalty_hess formed it there, and the termination tag. Each iterate is
    decided once, in this order: the budget (k >= max_iters gives "max_iters");
    convergence; stop(k, ev), whose tag (if not None) ends the loop; a step.
    With finite eps2, convergence at ||grad g|| <= eps1 is tested by a
    Cholesky factorization of penalty_hess + eps2 I (min_eig_above). Only
    when it fails is the smallest eigenpair computed, for the eigenstep's
    direction, and a smallest eigenvalue of at least -eps2 (a tie, or
    rounding) still converges.
    A gradient step searches its d from alpha01 and an eigenstep from
    alpha02. d = -H grad g, H by the L-BFGS two-loop recursion (_two_loop)
    over the pairs s = x - prev.x, y = grad g - prev.grad g of the last
    LBFGS_PAIRS gradient steps; a pair enters if s.y > PAIR_CURVATURE ||s||
    ||y||, an eigenstep clears them and each call starts with none. Without
    a pair, or unless slope = -grad g . d >= kappa ||grad g||^2 and ||d|| <=
    M ||grad g|| (DESCENT_KAPPA, DIRECTION_BOUND), d = -scale grad g with
    scale = ||s|| / (alpha01 ||y||) clipped to [kappa, 1], and 1 without prev
    or with y = 0. Its first trial alpha01 scale = ||s|| / ||y|| is the
    geometric mean of the two Barzilai-Borwein steps (Dai, Al-Baali and
    Yang, Springer Proc. Math. Stat. 134, 2015).

    The step bound. Let floor be the step length along -grad g up to which a
    trial provably passes its decrease test and keeps ||h|| <= radius,
    through regionwide curvature bounds once beta exceeds the pointwise
    thresholds (it scales with 1/(beta sigma_max(Dh)^2) and with the radius
    over the Taylor constant of h). Every gradient d passes both safeguards
    (the clip puts the fallback's scale in [kappa, 1]), so kappa ||grad g|| <=
    ||d|| <= M ||grad g|| scales floor by at least kappa / M^2: each accepted
    gradient step has alpha >= tau1 min(alpha01, kappa floor / M^2) and
    decreases g by at least c1 kappa alpha ||grad g||^2; each eigenstep has
    alpha >= tau2 min(alpha02, floor).
    """
    try:
        ev = evaluate(problem, x0, cfg.beta, with_grad=True)
    except RankDeficiencyError:
        return None, "rank_deficient"
    # prev: the last iterate, kept only when the last step was a gradient step
    k, prev, pairs = 0, None, deque(maxlen=LBFGS_PAIRS)
    while True:
        if k >= cfg.max_iters:
            return _terminal(records, ev, "max_iters", k)
        try:
            curvature = None
            if not ev.grad_norm > cfg.eps1:
                if math.isinf(cfg.eps2):
                    return _terminal(records, ev, "converged", k)
                hess, ev = penalty_hess(problem, ev, cfg.beta)
                if min_eig_above(hess, -cfg.eps2):
                    return _terminal(records, ev, "converged", k)
                curvature, d = sym_eig_min(hess)
                if not curvature < -cfg.eps2:  # a tie, or rounding near -eps2
                    return _terminal(records, ev, "converged", k)
            tag = None if stop is None else stop(k, ev)
            if tag is not None:
                return _terminal(records, ev, tag, k)
            if curvature is None:
                d, slope, d_norm = _gradient_step(pairs, prev, ev, cfg.alpha01)
                alpha, trial, bts = gradient_backtrack(problem, ev, cfg, d)
                prev = ev
            else:
                # no prev after an eigenstep: a scale read across it saves so-saddle
                # gradient backtracks but costs it more iterations
                prev = slope = d_norm = None
                pairs.clear()
                if float(d @ ev.grad_g) > 0.0:
                    d = -d
                alpha, trial, bts = eigen_backtrack(problem, ev, d, curvature, cfg)
            ev_next = evaluate(problem, trial, cfg.beta, with_grad=True)
        except RankDeficiencyError:
            return _terminal(records, ev, "rank_deficient", k)
        except DecreaseBelowRoundingError:
            return _terminal(records, ev, "tolerance_unreachable", k)
        except BacktrackFailureError:
            return _terminal(records, ev, "beta_too_small", k)
        records.append(IterationRecord(
            k, "gradient" if curvature is None else "eigen", alpha, ev.g_val, ev_next.g_val,
            ev.grad_norm, ev_next.h_norm, curvature, bts, slope, d_norm))
        ev = ev_next
        k += 1


def _certified(problem, cfg, records, ev, reason, x0, plateaus=None):
    """The RunTrace of a finished run, with the one certificate of its last iterate.

    ev is None when no point was evaluated; the trace then ends at x0
    without a certificate. certify reads ev's lag_hess when it has one.
    """
    if ev is None:
        return RunTrace(cfg, records, x0, None, reason, plateaus)
    cert = certify(problem, ev, cfg.eps1, 2.0 * cfg.eps1, cfg.eps2)
    if reason == "converged":
        reason = _assert_first_order_bounds(problem, ev, cert, cfg)
    return RunTrace(cfg, records, ev.x, cert, reason, plateaus)


@np.errstate(over="ignore", invalid="ignore")  # an evaluator's inf raises, and warns nothing
def gradient_eigenstep(problem, x0, cfg):
    """Minimize the penalty until its gradient and (optionally) curvature tolerances hold.

    Convergence is ||grad g|| <= eps1 and, with finite eps2, a smallest
    eigenvalue of penalty_hess >= -eps2; _descend states the order in which
    each iterate is decided and how. The step is a gradient step while
    ||grad g|| > eps1, otherwise an eigenstep along the eigenvector of the
    smallest eigenvalue (sign-flipped so it is non-ascending). The final
    point carries a layered criticality certificate with targets
    (eps1, 2*eps1, eps2).

    Worst-case accounting (documentation only): dividing g(x0) - inf g by
    the per-step decreases that audit checks, with alpha bounded below
    (_descend), gives counts scaling like eps1^-2 and eps2^-3.
    """
    x0 = _check_inputs(problem, x0, cfg)
    records = []
    ev, reason = _descend(problem, x0, cfg, records)
    return _certified(problem, cfg, records, ev, reason, x0)


@np.errstate(over="ignore", invalid="ignore")
def plateau(problem, x0, cfg, *, gamma=2.0, lp0=100, max_plateaus=60):
    """Rerun the solver's loop with growing beta until it converges on its own.

    The first plateau's beta is cfg.beta. Each plateau runs the
    gradient_eigenstep loop at constant beta with the extra stopping
    criterion "B(x_k) >= beta_l or k > LP_l", where B is the
    maximum of the pointwise beta thresholds, checked at every non-converged
    iterate by beta_thresholds(below=beta_l), whose docstring states the
    bound that skips Dlambda's SVD; B, and so the stage's b_value and the
    next beta, is always the exact one. On a B-trigger
    the budget grows by (gamma*B/beta_l)^4 and beta jumps to gamma*B;
    otherwise both grow geometrically (gamma^4 and gamma). Backtracking
    failure is treated as a B-trigger at the current beta, forcing growth,
    unless the region floor 1/(2 beta sigma_max(Dh)^2) at the last iterate
    is already below the smallest trial alpha01 * tau1^max_backtracks: a
    larger beta only lowers that floor, so the scheme ends as
    "trial_budget". Any other end of a plateau
    (converged, max_iters, rank_deficient, tolerance_unreachable) ends the
    scheme with that termination. After max_plateaus plateaus without such
    an end (a negative cap raises ValueError), or once the next beta or
    budget would overflow to inf, the termination is "max_plateaus".

    The returned trace holds the records of every plateau, the per-plateau
    stages, the config of the last plateau, and the last point with its
    certificate; only that point is certified (no certificate when no
    plateau ran).
    """
    if not 1.0 < gamma < math.inf:
        raise ValueError("gamma must be finite and exceed 1")
    if not 0 < lp0 < math.inf:
        raise ValueError("lp0 must be positive and finite")
    if max_plateaus < 0:
        raise ValueError("max_plateaus must be nonnegative")
    x0 = _check_inputs(problem, x0, cfg)  # cfg.validate() refuses a beta that is not > 0 and finite
    beta_l, lp_l, stage_cfg = float(cfg.beta), float(lp0), cfg
    start, records, stages, ev = x0, [], [], None
    for ell in range(max_plateaus):
        b_max = None

        def stop(k, ev):
            nonlocal b_max
            th = beta_thresholds(problem, ev, below=beta_l)
            if th is not None and th.b_max >= beta_l:
                b_max = th.b_max
                return "b_trigger"
            if k > lp_l:
                return "budget"
            return None

        stage_cfg = cfg._replace(beta=beta_l)
        first = len(records)
        ev, reason = _descend(problem, start, stage_cfg, records, stop)
        iters = sum(r.kind != "terminal" for r in records[first:])
        stop_reason = "backtrack_failure" if reason == "beta_too_small" else reason
        b_value = {"b_trigger": b_max, "beta_too_small": beta_l}.get(reason)
        stages.append(PlateauStage(ell, beta_l, lp_l, iters, stop_reason, b_value))
        if reason not in ("b_trigger", "budget", "beta_too_small"):
            break
        if reason == "beta_too_small":
            floor = 1.0 / (2.0 * beta_l * ev.jac_svd.sigma_max**2)
            if floor < cfg.alpha01 * cfg.tau1**cfg.max_backtracks:
                reason = "trial_budget"
                break
        start = ev  # the next stage re-bases this evaluation at its beta
        if reason == "b_trigger":
            ratio, beta_l = gamma * b_max / beta_l, gamma * b_max
        else:
            ratio, beta_l = gamma, gamma * beta_l
        try:
            lp_l = ratio**4 * lp_l
        except OverflowError:  # float ** raises where float * overflows to inf
            lp_l = math.inf
        if not (math.isfinite(beta_l) and math.isfinite(lp_l)):
            reason = "max_plateaus"  # the schedule cannot grow any further
            break
    else:
        reason = "max_plateaus"
    return _certified(problem, stage_cfg, records, ev, reason, x0, stages)


def restore_feasibility(problem, x0, step, t_end):
    """Integrate the constraint-violation gradient flow dx/dt = -Dh(x)^T h(x).

    Fourth-order (classical Runge-Kutta) steps of size step, halved whenever the
    violation energy phi = 0.5 ||h||^2 fails to decrease or is not finite, and
    doubled back, up to step, after each accepted one; stops at t_end or once phi
    <= 1e-16. Returns the final point and the list of (t, phi) samples including
    t = 0. A run that reaches t_end samples it exactly; with no halving and t_end
    a multiple of step, it takes t_end / step steps.

    Raises ValueError for a step or t_end that is not positive and finite,
    a t_end / step above RESTORE_STEPS, or an x0 outside the region;
    EvaluationError when h at x0, or jac_h at an accepted point, is not
    finite (a non-finite value at a trial stage only rejects the step); and
    StepSizeError when halving cannot restore monotone decrease, or when
    the run takes more than RESTORE_ATTEMPTS RK4 steps, rejected ones included.
    """
    if not (0 < step < math.inf and 0 < t_end < math.inf):
        raise ValueError("step and t_end must be positive and finite")
    if t_end / step > RESTORE_STEPS:
        raise ValueError("t_end / step = %g exceeds the budget of %d steps"
                         % (t_end / step, RESTORE_STEPS))
    x = np.asarray(x0, dtype=float)
    h_x, _, inside = _read_h(problem, x)  # h at x0 is read once, and must be finite
    if not inside:
        raise _outside(problem)
    h, jac_h = problem.h, problem.jac_h

    def h_at(y):
        # read raw, not through _read_h: a non-finite h at a trial is a rejected step
        return np.asarray(h(y), dtype=float).ravel()

    def grad_phi(y, hv=None):
        return jac_h(y).T.dot(h_at(y) if hv is None else hv)

    phi = 0.5 * float(h_x @ h_x)
    log = [(0.0, phi)]
    step, t_end = float(step), float(t_end)
    t, attempts, dt = 0.0, 0, step
    # each accepted step rounds t by at most eps * t_end
    t_rounding = float(np.finfo(float).eps) * t_end
    # stages are Dh^T h (updates carry the sign); k1 reuses x's h and outlives rejected steps
    k1 = None
    # An overshooting step may overflow; its non-finite phi is rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end and phi > 1e-16:
            attempts += 1
            if attempts > RESTORE_ATTEMPTS:
                raise StepSizeError("restoration did not reach t_end=%g within %d RK4 steps, "
                                    "halved ones included" % (t_end, RESTORE_ATTEMPTS))
            # a remainder within the rounding t has gathered of one step is
            # folded into the last step, which ends at t_end
            last = t_end - t <= dt + len(log) * t_rounding
            dt_eff = t_end - t if last else dt
            if k1 is None:
                k1 = grad_phi(x, h_x)
            k2 = grad_phi(x - 0.5 * dt_eff * k1)
            k3 = grad_phi(x - 0.5 * dt_eff * k2)
            k4 = grad_phi(x - dt_eff * k3)
            x_new = x - (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            h_new = h_at(x_new)
            phi_new = 0.5 * float(h_new @ h_new)
            if not phi_new <= phi:
                # x's h is finite, so a non-finite k1 is jac_h's, and no halving mends it
                _finite(k1, "jac_h", x)
                dt *= 0.5
                if dt < step * 2.0**-40:
                    raise StepSizeError(
                        "violation energy keeps increasing or is not finite; "
                        "step could not be salvaged by halving"
                    )
                continue
            x, h_x, k1 = x_new, h_new, None
            t = t_end if last else t + dt_eff
            phi, dt = phi_new, min(step, 2.0 * dt)
            log.append((t, phi))
    return x, log


def audit(problem, trace):
    """The paper's guarantees checked on a trace in the JSON layout; a list of violations.

    Clauses: region (h_norm <= R); progress (a gradient step or eigenstep
    has g_after < g_before, strictly: no slack); at gradient steps armijo
    (decrease >= c1 step_len slope) and gradient_related, _descend's
    safeguards (slope >= DESCENT_KAPPA grad_norm^2, d_norm <= DIRECTION_BOUND
    grad_norm); at eigensteps eigen_curvature (< -eps2), eigen_grad_norm (<=
    eps1) and eigen_decrease (>= -c2 step_len^2 curvature); converged_grad_norm
    (a converged run's last grad_norm <= eps1). Each bound but progress takes
    BOUND_SLACK. The plateau schedule is left out: a trace holds no gamma.
    """
    c, records, out = trace["config"], trace["records"], []
    for k, r in enumerate(records):
        decrease = r["g_before"] - r["g_after"]
        if r["kind"] != "terminal" and not decrease > 0.0:
            out.append("record %d: progress: %r >= %r" % (k, r["g_after"], r["g_before"]))
        checks = [("region", r["h_norm"], problem.region.radius)]
        if r["kind"] == "gradient":
            checks += [("armijo", c["c1"] * r["step_len"] * r["slope"], decrease),
                       ("gradient_related", DESCENT_KAPPA * r["grad_norm"]**2, r["slope"]),
                       ("gradient_related", r["d_norm"], DIRECTION_BOUND * r["grad_norm"])]
        elif r["kind"] == "eigen":  # eps2 is None (inf) in a first-order trace
            checks += [("eigen_curvature", r["curvature"], -(c["eps2"] or math.inf)),
                       ("eigen_grad_norm", r["grad_norm"], c["eps1"]),
                       ("eigen_decrease", -c["c2"] * r["step_len"]**2 * r["curvature"], decrease)]
        if k == len(records) - 1 and trace["termination"] == "converged":
            checks.append(("converged_grad_norm", r["grad_norm"], c["eps1"]))
        out += _violations("record %d" % k, checks)
    return out


def audit_restore(problem, log):
    """The restoration's guarantees checked on its (t, phi) log; a list of violations.

    Clauses: phi_increase, and envelope, Gronwall's phi(t) <= phi(0) exp(-2
    sigma_lb^2 t), as d phi/dt = -||Dh^T h||^2 <= -2 sigma_lb^2 phi on the flow.
    """
    rate = 2.0 * problem.region.sigma_lb**2
    return [v for i, (t, phi) in enumerate(log) for v in _violations("sample %d" % i, [
        ("phi_increase", phi, log[max(i - 1, 0)][1]),
        ("envelope", phi, log[0][1] * math.exp(-rate * t))])]
