"""Smooth exact penalty: value, gradient, multiplier map, and beta thresholds.

The penalty is g(x) = f(x) - <h(x), lambda(x)> + beta * ||h(x)||^2 with
least-squares multipliers lambda(x) = pinv(Dh(x)^T) grad f(x). Its gradient
splits into a tangent part (the Riemannian gradient of f on the level set
of h through x) and constraint-normal parts. The Hessian is assembled from
the same pieces, less the term sum_i h_i hess lambda_i, which would need
third derivatives and vanishes on the feasible set. Each point costs one
thin SVD of Dh, which yields the multipliers,
(Dh Dh^T)^{-1} = U diag(s^-2) U^T and the rank check. Second derivatives
of f and h enter as Hessian products; only penalty_hess takes them with
the n-by-n identity.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import EvaluationError, RankDeficiencyError
from .linalg import SvdResult, default_rank_tol, svd, vector_norm

__all__ = [
    "PenaltyEval",
    "BetaThresholds",
    "multipliers",
    "evaluate",
    "penalty_value",
    "penalty_grad",
    "penalty_hess",
    "dlambda_jacobian",
    "beta_thresholds",
    "in_region",
]


@dataclass(frozen=True)
class PenaltyEval:
    """Cached quantities of one penalty evaluation at a point.

    Immutable after construction; independent points may be evaluated
    concurrently. grad_g is None when the evaluation was value-only;
    evaluate() can complete such an evaluation without redoing the point.
    lag_block is the n-by-m Lagrangian-Hessian block (hess f - H(lambda)) Dh^T
    that the gradient computed; None without a gradient. h_norm and
    grad_norm are computed on first read and then kept.
    """

    x: np.ndarray
    beta: float
    h_val: np.ndarray
    jac: np.ndarray
    jac_svd: SvdResult
    grad_f: np.ndarray
    lambda_val: np.ndarray
    g_val: float
    grad_g: Optional[np.ndarray]
    lag_block: Optional[np.ndarray] = None

    @cached_property
    def h_norm(self):
        return vector_norm(self.h_val)

    @cached_property
    def grad_norm(self):
        return vector_norm(self.grad_g)


@dataclass(frozen=True)
class BetaThresholds:
    """Pointwise lower thresholds on the penalty parameter.

    beta1 governs exactness of critical points, beta2/beta3 the
    first-order certificate inequalities; b_max is their maximum.
    """

    beta1: float
    beta2: float
    beta3: float
    b_max: float
    c_lambda: float
    sigma_min: float
    sigma_max: float


def _finite(arr, label, x):
    if not np.isfinite(arr).all():
        raise EvaluationError("%s returned non-finite values at %s" % (label, x))
    return arr


def _point_data(problem, x, h_val=None):
    """Shared per-point bundle: h, Dh, its thin SVD, grad f, and multipliers.

    x may be a PenaltyEval, whose bundle is returned without new evaluations.
    h_val, when given, is h(x) as the caller already evaluated it: it is
    checked and used in place of a new call to h.
    """
    if isinstance(x, PenaltyEval):
        return x.x, x.h_val, x.jac, x.jac_svd, x.grad_f, x.lambda_val
    x = np.asarray(x, dtype=float)
    if h_val is None:
        h_val = problem.h(x)
    h_val = _finite(np.asarray(h_val, dtype=float).ravel(), "h", x)
    jac = _finite(np.asarray(problem.jac_h(x), dtype=float), "jac_h", x)
    grad_f = _finite(np.asarray(problem.grad_f(x), dtype=float).ravel(), "grad_f", x)
    res = svd(jac)
    m, n = jac.shape
    tol = default_rank_tol(m, n)
    if res.sigma_min <= tol * res.sigma_max:
        raise RankDeficiencyError(x, res.sigma_min, res.sigma_max)
    h_norm = vector_norm(h_val)
    reg = problem.region
    if h_norm <= reg.radius and res.sigma_min < reg.sigma_lb * (1.0 - 1e-9):
        warnings.warn(
            "sigma_min(Dh)=%.3e dips below the declared lower bound %.3e inside "
            "the region; the supplied region constants look inconsistent"
            % (res.sigma_min, reg.sigma_lb),
            RuntimeWarning,
            stacklevel=3,
        )
    # Minimum-norm least-squares multipliers through the SVD of Dh.
    lam = res.u @ ((res.vt @ grad_f) / res.s)
    return x, h_val, jac, res, grad_f, lam


def multipliers(problem, x):
    """Least-squares multipliers and the constraint-Jacobian SVD for reuse.

    Raises RankDeficiencyError when sigma_min(Dh) falls below the numerical
    rank cutoff, naming the offending point.
    """
    _, _, _, res, _, lam = _point_data(problem, x)
    return lam, res


def _riem_grad(grad_f, jac, lam):
    return grad_f - jac.T @ lam


def _gram_inverse(res, rhs):
    """(Dh Dh^T)^{-1} rhs = U diag(s^-2) U^T rhs from the SVD in hand."""
    us = res.u / res.s
    return us @ (us.T @ rhs)


def _lagrangian_hess(problem, x, lam, v):
    """(hess f - sum_i lam_i hess h_i) v: one hess_f and one weighted hess_h product."""
    hess_f = _finite(np.asarray(problem.hess_f(x, v), dtype=float), "hess_f", x)
    return hess_f - problem.hess_h(x, lam, v)


def _dlambda(problem, x):
    """Dense multiplier Jacobian and x's point data (the _point_data tuple).

    Differentiating (Dh Dh^T) lam = Dh grad f gives Dlam = (Dh Dh^T)^{-1} (R + B^T)
    with R's rows (H(e_i) grad_M f)^T, H(w) = sum_i w_i hess h_i and the block
    B = (hess f - H(lam)) Dh^T: x's lag_block when x is a completed PenaltyEval.
    """
    block = getattr(x, "lag_block", None)
    point = _point_data(problem, x)
    x, _, jac, res, grad_f, lam = point
    if block is None:
        block = _lagrangian_hess(problem, x, lam, jac.T)
    rg = _riem_grad(grad_f, jac, lam)
    rows = np.array([problem.hess_h(x, e, rg) for e in np.eye(jac.shape[0])])
    return _finite(_gram_inverse(res, rows + block.T), "hess_h", x), point


def dlambda_jacobian(problem, x):
    """Dense Jacobian of the multiplier map, one column per coordinate.

    Differentiates the normal equations through the thin SVD of Dh, with
    m hess_h products. x may be a PenaltyEval, whose point data and
    Lagrangian-Hessian block are reused.
    """
    return _dlambda(problem, x)[0]


def evaluate(problem, x, beta, with_grad=True, h_val=None):
    """Build a PenaltyEval at x; the Dh SVD is computed once and shared.

    x may also be a value-only PenaltyEval built with the same beta (as the
    backtracking searches return): its point data is reused and only the
    gradient is added. h_val, when given with a point x, is h(x) as the
    caller already evaluated it (the searches' region test), so h is not
    called again. Raises EvaluationError when an evaluator returns a
    non-finite value (hess_h is caught through the assembled gradient).
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    g_val = None
    if isinstance(x, PenaltyEval):
        if x.beta != beta:
            raise ValueError("PenaltyEval has beta=%r, not %r" % (x.beta, beta))
        if not with_grad or x.grad_g is not None:
            return x
        g_val = x.g_val
    x, h_val, jac, res, grad_f, lam = _point_data(problem, x, h_val)
    if g_val is None:
        f_val = float(problem.f(x))
        if not math.isfinite(f_val):
            raise EvaluationError("f returned a non-finite value at %s" % (x,))
        g_val = f_val - float(h_val @ lam) + beta * float(h_val @ h_val)
    grad_g = block = None
    if with_grad:
        rg = _riem_grad(grad_f, jac, lam)
        # (Dlam)^T h = H(w) grad_M f + B w, w = (Dh Dh^T)^{-1} h: _dlambda's formula transposed
        block = _lagrangian_hess(problem, x, lam, jac.T)
        w = _gram_inverse(res, h_val)
        adjoint = problem.hess_h(x, w, rg) + block @ w
        # Every other input is checked where it is read; hess_h output is checked
        # here, once per gradient, rather than on each of its products.
        grad_g = _finite(rg + 2.0 * beta * (jac.T @ h_val) - adjoint, "hess_h", x)
    return PenaltyEval(x=x, beta=float(beta), h_val=h_val, jac=jac, jac_svd=res, grad_f=grad_f,
                       lambda_val=lam, g_val=g_val, grad_g=grad_g, lag_block=block)


def penalty_value(problem, x, beta):
    """g(x) = f(x) - <h(x), lambda(x)> + beta ||h(x)||^2."""
    return evaluate(problem, x, beta, with_grad=False).g_val


def penalty_grad(problem, x, beta):
    """Analytic gradient of the penalty.

    Assembled as the layered Riemannian gradient of f plus the two
    constraint-normal terms 2*beta*Dh^T h and -(Dlambda)^T h, the latter
    as an adjoint product that never forms Dlambda.
    """
    return evaluate(problem, x, beta, with_grad=True).grad_g


def penalty_hess(problem, x, beta):
    """Symmetrized penalty Hessian, less the term sum_i h_i hess lambda_i.

    Differentiating the gradient once more gives
    (hess f - H(lam)) - Dh^T Dlam - Dlam^T Dh + 2 beta (Dh^T Dh + H(h)),
    with H(w) = sum_i w_i hess h_i. The dropped term needs third derivatives
    and is O(||h||): zero on the feasible set and small at the
    eps1-stationary iterates where the solver reads curvature. x may be a
    PenaltyEval, whose point data and Lagrangian-Hessian block are reused:
    the Hessian then costs one hess_f and m + 2 hess_h products with the
    identity, and no further evaluation or SVD.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    dlam, (x, h_val, jac, _, _, lam) = _dlambda(problem, x)
    eye = np.eye(x.size)
    cross = jac.T @ dlam
    hess = (_lagrangian_hess(problem, x, lam, eye) - cross - cross.T
            + 2.0 * beta * (jac.T @ jac + problem.hess_h(x, h_val, eye)))
    return _finite(0.5 * (hess + hess.T), "hess_h", x)


def beta_thresholds(problem, x):
    """Pointwise beta thresholds from the Jacobian SVD and the multiplier map.

    x may be a PenaltyEval, whose point data and Lagrangian-Hessian block
    are reused: Dlambda then costs only m hess_h products.
    """
    dlam, (_, _, _, res, _, _) = _dlambda(problem, x)
    c_lambda = svd(dlam).sigma_max
    s_min = res.sigma_min
    s_max = res.sigma_max
    beta1 = s_max * c_lambda / (2.0 * s_min**2)
    beta2 = c_lambda / s_min
    beta3 = 1.0 / s_min
    return BetaThresholds(
        beta1=beta1,
        beta2=beta2,
        beta3=beta3,
        b_max=max(beta1, beta2, beta3),
        c_lambda=c_lambda,
        sigma_min=s_min,
        sigma_max=s_max,
    )


def in_region(problem, x):
    """True iff ||h(x)|| <= radius (boundary included)."""
    h_val = np.asarray(problem.h(np.asarray(x, dtype=float)), dtype=float)
    return bool(np.linalg.norm(h_val) <= problem.region.radius)
