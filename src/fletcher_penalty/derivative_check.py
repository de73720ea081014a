"""Central finite-difference oracles and the per-problem derivative report.

These routines are intentionally independent of the analytic derivative
code paths they verify: they call only the black-box evaluators.
"""

import json
import math
from typing import NamedTuple

import numpy as np

from .exceptions import EvaluationError, FletcherPenaltyError
from .penalty import dlambda_jacobian, multipliers, penalty_grad, penalty_value

__all__ = [
    "FIRST_ORDER_STEP",
    "SECOND_ORDER_STEP",
    "DerivativeReport",
    "fd_grad",
    "fd_jacobian",
    "relative_error",
    "check_problem",
    "reports_to_json",
]

# Central-difference step for first derivatives: eps^(1/3) balances the
# O(step^2) truncation error against the O(eps/step) rounding error.
FIRST_ORDER_STEP = float(np.finfo(float).eps ** (1.0 / 3.0))
SECOND_ORDER_STEP = float(np.finfo(float).eps ** 0.25)

# Per target, in report order: the pass threshold and the FD step. First
# derivatives of analytic quantities are held to 1e-6, anything built from
# second-derivative data to 1e-4.
TARGETS = {
    "grad_f": (1e-6, FIRST_ORDER_STEP),
    "jac_h": (1e-6, FIRST_ORDER_STEP),
    "penalty_grad": (1e-6, FIRST_ORDER_STEP),
    "hess_f": (1e-4, SECOND_ORDER_STEP),
    "hess_h": (1e-4, SECOND_ORDER_STEP),
    "dlambda_jacobian": (1e-4, FIRST_ORDER_STEP),
}
PENALTY_BETA = 1.0  # the penalty_grad target's beta


class DerivativeReport(NamedTuple):
    target: str
    max_rel_err: float
    worst_point_seed: int
    step_used: float
    passed: bool

    def as_dict(self):
        return {
            "target": self.target,
            "max_rel_err": self.max_rel_err,
            "worst_point_seed": self.worst_point_seed,
            "step_used": self.step_used,
            "pass": self.passed,
        }


def fd_jacobian(fun, x, step=FIRST_ORDER_STEP):
    """Central-difference Jacobian of a vector function, one column at a time.

    Uses the scaled offset step * (1 + ||x||). Raises EvaluationError on a
    non-finite stencil value.
    """
    x = np.asarray(x, dtype=float)
    delta = step * (1.0 + float(np.linalg.norm(x)))
    cols = []
    for e in np.diag(np.full(x.size, delta)):
        fp = np.asarray(fun(x + e), dtype=float).ravel()
        fm = np.asarray(fun(x - e), dtype=float).ravel()
        cols.append((fp - fm) / (2.0 * delta))
    jac = np.array(cols).T
    # A non-finite stencil value always leaves a non-finite difference.
    bad = np.flatnonzero(~np.isfinite(jac).all(axis=0))
    if bad.size:
        raise EvaluationError("non-finite stencil value in fd_jacobian at coordinate %d" % bad[0])
    return jac


def fd_grad(fun, x, step=FIRST_ORDER_STEP):
    """Central-difference gradient of a scalar function: the one-row fd_jacobian.

    Uses the scaled offset step * (1 + ||x||). Raises EvaluationError on a
    non-finite stencil value.
    """
    return fd_jacobian(fun, x, step).ravel()


def relative_error(a, b):
    """||a - b|| / (1 + max(||a||, ||b||)); the +1 keeps zero targets meaningful."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    diff = np.linalg.norm(a - b)
    return float(diff / (1.0 + max(np.linalg.norm(a), np.linalg.norm(b))))


def check_problem(problem, seeds):
    """Verify every analytic derivative of a problem against finite differences.

    At init_point(seed) for each seed, checks hess_f(x, I) against grad_f,
    grad_f against f, jac_h against h, each hess_h(x, e_i, I) against row i
    of one FD Jacobian of jac_h, the penalty gradient at PENALTY_BETA against
    the penalty value, and the multiplier Jacobian against the multipliers.
    Failures are reported, never raised: a NaN relative error, or a package
    error (such as a non-finite evaluator output) raised while checking a
    target, is reported as that target's worst error, NaN, and fails.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    worst = {name: (0.0, int(seeds[0])) for name in TARGETS}

    def note(name, err, seed):
        # a NaN error is the worst: it replaces any finite one and stays
        old = worst[name][0]
        if not math.isnan(old) and not err < old:
            worst[name] = (err, int(seed))

    eye = np.eye(problem.dim_x)  # a dense Hessian is the product with the identity

    def hess_h_err(x):
        # fd[i] is the FD Jacobian of row i of jac_h: the Hessian of h_i
        fd = fd_jacobian(problem.jac_h, x, SECOND_ORDER_STEP).reshape(problem.dim_h, x.size, x.size)
        return max(relative_error(problem.hess_h(x, e, eye), fd[i])
                   for i, e in enumerate(np.eye(problem.dim_h)))

    for seed in seeds:
        x = problem.init_point(seed)
        checks = {
            "grad_f": lambda: relative_error(problem.grad_f(x), fd_grad(problem.f, x)),
            "hess_f": lambda: relative_error(problem.hess_f(x, eye),
                                             fd_jacobian(problem.grad_f, x, SECOND_ORDER_STEP)),
            "jac_h": lambda: relative_error(problem.jac_h(x), fd_jacobian(problem.h, x)),
            "hess_h": lambda: hess_h_err(x),
            "penalty_grad": lambda: relative_error(
                penalty_grad(problem, x, PENALTY_BETA),
                fd_grad(lambda y: penalty_value(problem, y, PENALTY_BETA), x)),
            "dlambda_jacobian": lambda: relative_error(
                dlambda_jacobian(problem, x),
                fd_jacobian(lambda y: multipliers(problem, y)[0], x)),
        }
        for name, check in checks.items():
            try:
                err = check()
            except FletcherPenaltyError:
                err = math.nan  # the failure is this target's worst error
            note(name, err, seed)

    reports = []
    for name, (tol, step) in TARGETS.items():
        err, seed = worst[name]
        reports.append(
            DerivativeReport(
                target=name,
                max_rel_err=err,
                worst_point_seed=seed,
                step_used=step,
                passed=err <= tol,
            )
        )
    return reports


def reports_to_json(reports):
    return json.dumps([r.as_dict() for r in reports])
