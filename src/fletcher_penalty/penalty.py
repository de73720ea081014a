"""Smooth exact penalty: value, gradient, multiplier map, and beta thresholds.

The penalty is g(x) = f(x) - <h(x), lambda(x)> + beta * ||h(x)||^2 with
least-squares multipliers lambda(x) = pinv(Dh(x)^T) grad f(x). Its gradient
splits into a tangent part (the Riemannian gradient of f on the level set
of h through x) and constraint-normal parts. The Hessian is assembled from
the same pieces, less the term sum_i h_i hess lambda_i, which would need
third derivatives and vanishes on the feasible set. Each point costs one
thin SVD of Dh (linalg.svd, whose docstring says when it takes the Gram
route), which yields the multipliers, (Dh Dh^T)^{-1} = U diag(s^-2) U^T and
the rank check. Second derivatives of f and h enter as Hessian products;
only penalty_hess takes them with the n-by-n identity.
"""

import math
import sys
import warnings
from typing import NamedTuple, Optional

import numpy as np

from .exceptions import EvaluationError, RankDeficiencyError
from .linalg import SvdResult, _by_identity, _symmetrize, default_rank_tol, svd, vector_norm

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


@_by_identity
class PenaltyEval(NamedTuple):
    """One point's record, and the penalty at one beta once evaluated.

    The point fields (x through lambda_val) are computed once per point. beta and g_val are
    None on a bare point record; grad_g, grad_norm and lag_block, the n-by-m
    Lagrangian-Hessian block (hess f - H(lambda)) Dh^T that does not depend on beta, are
    None without a gradient; lag_hess, the n-by-n hess f - H(lambda) that certify reads,
    until _penalty_hess forms it. Immutable; independent points may be evaluated
    concurrently.
    """

    x: np.ndarray
    h_val: np.ndarray
    h_norm: float
    jac: np.ndarray
    jac_svd: SvdResult
    grad_f: np.ndarray
    lambda_val: np.ndarray
    beta: Optional[float] = None
    g_val: Optional[float] = None
    grad_g: Optional[np.ndarray] = None
    grad_norm: Optional[float] = None
    lag_block: Optional[np.ndarray] = None
    lag_hess: Optional[np.ndarray] = None

    @property
    def riem_grad(self):
        """grad f - Dh^T lambda: the gradient of f on the layer through x."""
        return self.grad_f - self.jac.T @ self.lambda_val


class BetaThresholds(NamedTuple):
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


def _at(x):
    """x on one line, as an error message names it: the CLI prints one line per error."""
    return np.array2string(np.asarray(x), max_line_width=sys.maxsize)


def _finite(arr, label, x):
    if not np.isfinite(arr).all():
        raise EvaluationError("%s returned non-finite values at %s" % (label, _at(x)))
    return arr


def _value(problem, x, h_val, lam, beta):
    """g(x) at beta from x's h and multipliers: one call to f.

    Only a non-finite g reads f_val, to name f when f is at fault.
    """
    f_val = float(problem.f(x))
    g_val = f_val - float(h_val.dot(lam)) + beta * float(h_val.dot(h_val))
    if not math.isfinite(g_val) and not math.isfinite(f_val):
        raise EvaluationError("f returned a non-finite value at %s" % _at(x))
    return g_val


def _read_h(problem, x):
    """(h, ||h||, ||h|| <= radius) at the array x: the one reader of h and region test.

    h comes back as a raveled float vector with its norm from vector_norm;
    the region includes its boundary. A search's trial is read once: its
    evaluation takes this triple whole (evaluate's read). Only a non-finite
    norm scans h: a NaN or +-inf entry raises EvaluationError naming h,
    while a finite h whose norm overflows lies outside the region.
    """
    h_val = np.asarray(problem.h(x), dtype=float).ravel()
    h_norm = vector_norm(h_val)
    if not math.isfinite(h_norm):
        _finite(h_val, "h", x)
    return h_val, h_norm, h_norm <= problem.region.radius


def _point(problem, x, read=None, beta=None):
    """The point record of x: h, its norm, Dh, its thin SVD, grad f and multipliers.

    x may be a PenaltyEval, which is returned as it is. read, when given, is
    _read_h's (h, ||h||, inside) of x as the caller already took it. With beta,
    the new record also holds the penalty value at beta, so a value-only
    evaluation builds one record. Each evaluator's output is checked once,
    in the order h, jac_h, grad_f, f, and through one scalar: a NaN or
    +-inf entry makes that scalar non-finite. The scalars are ||h||
    (_read_h), svd's own check for jac_h, vdot(grad_f, grad_f), and g for f; the
    full scan runs only when the scalar is not finite.
    """
    if isinstance(x, PenaltyEval):
        return x
    x = np.asarray(x, dtype=float)
    h_val, h_norm, inside = _read_h(problem, x) if read is None else read
    jac = np.asarray(problem.jac_h(x), dtype=float)
    try:
        res = svd(jac)  # svd's own finiteness check is the only pass over jac
    except ValueError:
        _finite(jac, "jac_h", x)  # a non-finite jac is named as jac_h's
        raise
    grad_f = np.asarray(problem.grad_f(x), dtype=float).ravel()
    if not math.isfinite(float(np.vdot(grad_f, grad_f))):  # vdot, unlike dot, warns of no overflow
        _finite(grad_f, "grad_f", x)  # a finite grad_f whose square overflows passes
    m, n = jac.shape
    tol = default_rank_tol(m, n)
    s_min, s_max = res.sigma_min, res.sigma_max
    if s_min <= tol * s_max:
        raise RankDeficiencyError(x, s_min, s_max)
    # Minimum-norm least-squares multipliers through the SVD of Dh.
    lam = res.u @ ((res.vt @ grad_f) / res.s)
    g_val = None if beta is None else _value(problem, x, h_val, lam, beta)
    reg = problem.region
    if inside and s_min < reg.sigma_lb * (1.0 - 1e-9):
        warnings.warn(
            "sigma_min(Dh)=%.3e dips below the declared lower bound %.3e inside "
            "the region; the supplied region constants look inconsistent"
            % (s_min, reg.sigma_lb),
            RuntimeWarning,
            stacklevel=3,
        )
    return PenaltyEval(x, h_val, h_norm, jac, res, grad_f, lam, beta, g_val)


def multipliers(problem, x):
    """Least-squares multipliers and the constraint-Jacobian SVD for reuse.

    Raises RankDeficiencyError when sigma_min(Dh) falls below the numerical
    rank cutoff, naming the offending point.
    """
    pt = _point(problem, x)
    return pt.lambda_val, pt.jac_svd


def _gram_inverse(res, rhs):
    """(Dh Dh^T)^{-1} rhs = U diag(s^-2) U^T rhs from the SVD in hand."""
    us = res.u / res.s
    return us @ (us.T @ rhs)


def _lagrangian_hess(problem, x, lam, v):
    """(hess f - sum_i lam_i hess h_i) v: one hess_f and one weighted hess_h product."""
    hess_f = _finite(np.asarray(problem.hess_f(x, v), dtype=float), "hess_f", x)
    return hess_f - problem.hess_h(x, lam, v)


def dlambda_jacobian(problem, x):
    """Dense Jacobian of the multiplier map, one column per coordinate.

    Differentiating (Dh Dh^T) lam = Dh grad f gives Dlam = (Dh Dh^T)^{-1} (R + B^T)
    with R's rows (H(e_i) grad_M f)^T, H(w) = sum_i w_i hess h_i and the block
    B = (hess f - H(lam)) Dh^T: m hess_h products and the thin SVD of Dh.
    x may be a PenaltyEval, whose point data and lag_block (B) are reused.
    """
    pt = _point(problem, x)
    block = pt.lag_block
    if block is None:
        block = _lagrangian_hess(problem, pt.x, pt.lambda_val, pt.jac.T)
    rg = pt.riem_grad
    rows = np.empty(pt.jac.shape)  # R's m rows, then R + B^T in place
    for i, e in enumerate(np.eye(len(rows))):
        rows[i] = problem.hess_h(pt.x, e, rg)
    rows += block.T
    return _finite(_gram_inverse(pt.jac_svd, rows), "hess_h", pt.x)


def _checked_gradient(x, beta, jac, h_val, rg, adjoint, hess_f):
    """grad g and its norm with every input scanned: evaluate's path for a gradient
    that may not be finite.

    The scans name the cause in the order the inputs were read: hess_f (None
    when the block was kept from an earlier evaluation), then a beta so large
    that 2 beta Dh^T h is not finite, then hess_h, whose products are read
    only through the assembled gradient. A finite gradient whose norm
    overflows passes.
    """
    if hess_f is not None:
        _finite(hess_f, "hess_f", x)
    with np.errstate(over="ignore", invalid="ignore"):
        normal = 2.0 * beta * (jac.T @ h_val)
    if not np.isfinite(normal).all():
        raise EvaluationError("beta=%r is too large: 2 beta Dh^T h is not finite" % beta)
    grad_g = _finite(rg + normal - adjoint, "hess_h", x)
    return grad_g, vector_norm(grad_g)


def evaluate(problem, x, beta, with_grad=True, read=None):
    """The PenaltyEval of x at beta; the Dh SVD is computed once and shared.

    x may also be a PenaltyEval, whose point data is reused: at its own beta
    a value-only evaluation (as the searches return) gets its gradient; at
    another beta the record is re-based, the value with one more call to f
    and the gradient with one hess_h product beside the kept lag_block (and lag_hess).
    read, when given with a point x, is x's region read (h, ||h||, inside)
    as _read_h returned it for a search's trial, so h is read once per trial.
    Raises EvaluationError when an evaluator returns a non-finite value
    (hess_h is caught through the assembled gradient) or when beta is so
    large that 2 beta Dh^T h is not finite.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    pt = _point(problem, x, read, float(beta))
    if pt.beta == beta and (pt.grad_g is not None or not with_grad):
        return pt
    x, h_val, jac, lam = pt.x, pt.h_val, pt.jac, pt.lambda_val
    g_val = pt.g_val if pt.beta == beta else _value(problem, x, h_val, lam, beta)
    grad_g = grad_norm = None
    block = pt.lag_block
    if with_grad:
        rg = pt.riem_grad
        # (Dlam)^T h = H(w) grad_M f + B w, w = (Dh Dh^T)^{-1} h: dlambda_jacobian transposed
        hess_f = None
        if block is None:
            hess_f = np.asarray(problem.hess_f(x, jac.T), dtype=float)
            block = hess_f - problem.hess_h(x, lam, jac.T)
        w = _gram_inverse(pt.jac_svd, h_val)
        adjoint = problem.hess_h(x, w, rg) + block @ w
        # The entries of 2 beta Dh^T h are at most 2 beta sigma_max ||h||: only past this
        # bound can that term overflow (inf * 0 for beta = 1e308), and only there is it
        # formed under _checked_gradient's scans. A NaN or +-inf entry of hess_f's block
        # or of a hess_h product makes ||grad g|| non-finite, so a finite norm is the
        # check of both.
        scale = 2.0 * beta
        fits = scale * pt.jac_svd.sigma_max * pt.h_norm < 1e300
        if fits:
            grad_g = rg + scale * (jac.T @ h_val) - adjoint
            grad_norm = vector_norm(grad_g)
        if not (fits and math.isfinite(grad_norm)):
            grad_g, grad_norm = _checked_gradient(x, beta, jac, h_val, rg, adjoint, hess_f)
    return PenaltyEval(x, h_val, pt.h_norm, jac, pt.jac_svd, pt.grad_f, lam, float(beta), g_val,
                       grad_g, grad_norm, block, pt.lag_hess)


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
    """Penalty Hessian, exactly symmetric, less the term sum_i h_i hess lambda_i.

    Differentiating the gradient once more gives
    (hess f - H(lam)) - Dh^T Dlam - Dlam^T Dh + 2 beta (Dh^T Dh + H(h)),
    with H(w) = sum_i w_i hess h_i, assembled in one array, symmetrized once (_symmetrize) and
    scanned once. The dropped term needs third derivatives and is O(||h||): zero on the feasible
    set and small at the eps1-stationary iterates where the solver reads curvature. x may be a
    PenaltyEval, whose point data and Lagrangian-Hessian block are reused: the Hessian then
    costs one hess_f and two hess_h products with the identity (H(lam) and H(h)), the m hess_h
    vector products of Dlam's rows, and no further evaluation or SVD.
    """
    return _penalty_hess(problem, x, beta)[0]


def _penalty_hess(problem, x, beta):
    """penalty_hess at x and x's record holding M = hess f - H(lam) (lag_hess), formed here."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    pt = _point(problem, x)
    x, jac = pt.x, pt.jac
    eye = np.eye(x.size)
    cross = np.dot(jac.T, dlambda_jacobian(problem, pt))  # np.dot takes BLAS also for m = 1
    lag = _lagrangian_hess(problem, x, pt.lambda_val, eye)
    hess = lag - cross
    hess -= cross.T
    normal = np.dot(jac.T, jac) + problem.hess_h(x, pt.h_val, eye)
    normal *= 2.0 * beta
    hess += normal
    return _finite(_symmetrize(hess), "hess_h", x), pt._replace(lag_hess=lag)


def _thresholds(c_lambda, res):
    """The thresholds for a Dlambda of norm (or norm bound) c_lambda and Dh's SVD res."""
    s_min = res.sigma_min
    s_max = res.sigma_max
    beta1 = s_max * c_lambda / (2.0 * s_min**2)
    beta2 = c_lambda / s_min
    beta3 = 1.0 / s_min
    return BetaThresholds(beta1=beta1, beta2=beta2, beta3=beta3, b_max=max(beta1, beta2, beta3),
                          c_lambda=c_lambda, sigma_min=s_min, sigma_max=s_max)


# Relative margin on the Frobenius bound: a LAPACK sigma_max of a rank-one
# Dlambda (m = 1) equals ||Dlambda||_F up to rounding and may exceed the computed F.
_BOUND_MARGIN = 1e-8


def beta_thresholds(problem, x, below=None):
    """Pointwise beta thresholds from the Jacobian SVD and the multiplier map.

    c_lambda = ||Dlambda||_2 is read from an SVD of the dense Dlambda. x may
    be a PenaltyEval, whose point data and Lagrangian-Hessian block are
    reused: Dlambda then costs only m hess_h products. With below (the
    plateau scheme's stop check passes its beta), None is returned when
    b_max is provably below it, without that SVD: Dlambda's Frobenius norm
    F is at least c_lambda, so the thresholds taken with F bound every exact
    threshold from above, and the SVD is skipped when that bound, raised by
    a relative 1e-8 against rounding, is below `below`. Any thresholds
    returned are the exact ones, bit for bit.
    """
    pt = _point(problem, x)
    dlam = dlambda_jacobian(problem, pt)
    if below is not None and (_thresholds(vector_norm(dlam.ravel()), pt.jac_svd).b_max
                              * (1.0 + _BOUND_MARGIN) < below):
        return None
    return _thresholds(svd(dlam).sigma_max, pt.jac_svd)


def in_region(problem, x):
    """True iff ||h(x)|| <= radius (boundary included); a non-finite h raises (_read_h)."""
    return bool(_read_h(problem, np.asarray(x, dtype=float))[2])
