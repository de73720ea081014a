"""Layered-manifold criticality measures and certificates.

Every point x with full-rank constraint Jacobian sits on the level set
{y : h(y) = h(x)}, a smooth submanifold. Criticality of f is measured on
that layer: gradient projected to ker Dh(x), and the least eigenvalue of the
Hessian of f minus the multiplier-weighted constraint Hessians reduced to
ker Dh(x), read through Dh's right singular vectors alone (_layer_min_eig,
for layered_hess and certify). A certificate compares them against targets;
lagrangian_check takes user multipliers and any Dh, through a kernel basis.
"""

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .linalg import _by_identity, _symmetrize, kernel_basis, vector_norm
from .linalg import _sym_eig_min as sym_eig_min  # traced by this name
from .penalty import _finite, _lagrangian_hess, _point, _read_h

__all__ = [
    "LayeredQuantities",
    "CriticalityCertificate",
    "layered_grad",
    "layered_hess",
    "certify",
    "lagrangian_check",
]


@_by_identity
class LayeredQuantities(NamedTuple):
    """Riemannian gradient of f on the layer through x and its least Hessian eigenvalue."""

    h_norm: float
    riem_grad: np.ndarray
    riem_grad_norm: float
    min_eig: float


class CriticalityCertificate(NamedTuple):
    """Measured criticality quantities against (eps0, eps1, eps2) targets.

    eps2_measured is max(0, -min_eig) so certificates are monotone in the
    targets; it is None when the Hessian check was skipped (eps2 infinite).
    Ties at exact equality pass (non-strict comparisons). min_eig keeps the
    measured smallest reduced-Hessian eigenvalue (None when skipped); as_dict
    leaves it out.
    """

    eps0_measured: float
    eps1_measured: float
    eps2_measured: Optional[float]
    targets: Tuple[float, float, float]
    focp_pass: bool
    socp_pass: bool
    min_eig: Optional[float] = None

    def as_dict(self):
        eps2_target = self.targets[2]
        return {
            "eps0_measured": self.eps0_measured,
            "eps1_measured": self.eps1_measured,
            "eps2_measured": self.eps2_measured,
            "targets": [
                self.targets[0],
                self.targets[1],
                None if math.isinf(eps2_target) else eps2_target,
            ],
            "focp_pass": self.focp_pass,
            "socp_pass": self.socp_pass,
        }


def layered_grad(problem, x):
    """Gradient of f projected onto ker Dh(x): grad f - Dh^T lambda."""
    return _point(problem, x).riem_grad


def layered_hess(problem, x):
    """Layered Riemannian gradient at x and the least eigenvalue of the reduced Hessian.

    min_eig is certify's (_layer_min_eig), bit for bit: that of Q^T (hess f - H(lambda)) Q.
    """
    pt = _point(problem, x)
    rg = pt.riem_grad
    return LayeredQuantities(h_norm=pt.h_norm, riem_grad=rg, riem_grad_norm=vector_norm(rg),
                             min_eig=_layer_min_eig(problem, pt))


def _layer_min_eig(problem, pt):
    """Least eigenvalue of Q^T M Q, Q a kernel basis of Dh and M = hess f - H(lambda), without Q.

    K = (I - V V^T) M (I - V V^T) + c V V^T with V = jac_svd.vt^T has the eigenvalues of Q^T M Q
    and m more equal to c = ||M||_inf + 1, above them all. With W = M V and E = V V^T W + c V - W,
    K = M + [V W] [E -V]^T: one rank-2m product. M is pt.lag_hess, else formed by one I product.
    K goes through _symmetrize, is scanned once and handed to eigvalsh as it is. Only where c
    overflows is M first scaled by 2^-s, s = bit_length(n) + 3, so that c <= 2^1021 and K is
    finite, and the eigenvalue scaled back: a power of two, exact but for subnormal entries.
    """
    lag = pt.lag_hess
    if lag is None:
        lag = _lagrangian_hess(problem, pt.x, pt.lambda_val, np.eye(pt.x.size))
    with np.errstate(over="ignore"):
        c = float(np.abs(lag).sum(axis=1).max()) + 1.0
    scale = 1.0
    if math.isinf(c):
        scale = 2.0 ** (pt.x.size.bit_length() + 3)
        lag = lag / scale
        c = float(np.abs(lag).sum(axis=1).max()) + 1.0
    v = pt.jac_svd.vt.T
    w = lag @ v
    e = v @ (v.T @ w) + c * v - w
    k = _symmetrize(lag + np.hstack((v, w)) @ np.hstack((e, -v)).T)
    return scale * sym_eig_min(_finite(k, "hess_h", pt.x), vector=False)[0]


def certify(problem, x, eps0, eps1, eps2):
    """Measure layered criticality at x and compare against the targets.

    eps2 = inf skips the Hessian measurement; the second-order flag then reduces to the
    first-order one. x may be a PenaltyEval, whose point data is reused; with the lag_hess
    that penalty_hess put on it, no SVD or Hessian product is taken.
    """
    pt = _point(problem, x)
    eps0_m, eps1_m = pt.h_norm, vector_norm(pt.riem_grad)
    eps2_m, curvature_ok, min_eig = None, True, None
    if not math.isinf(eps2):
        min_eig = _layer_min_eig(problem, pt)
        eps2_m, curvature_ok = max(0.0, -min_eig), min_eig >= -eps2
    focp = eps0_m <= eps0 and eps1_m <= eps1
    return CriticalityCertificate(eps0_measured=eps0_m, eps1_measured=eps1_m,
                                  eps2_measured=eps2_m, targets=(eps0, eps1, eps2),
                                  focp_pass=focp, socp_pass=focp and curvature_ok, min_eig=min_eig)


def lagrangian_check(problem, x, lam, eps0, eps1, eps2):
    """Lagrangian-based approximate criticality with user-supplied multipliers.

    First flag: ||h|| <= eps0 and ||grad f - Dh^T lam|| <= eps1. Second
    flag: additionally the Lagrangian Hessian restricted to ker Dh(x) is
    bounded below by -eps2. Works for any lam; no rank requirement beyond
    what the kernel basis tolerates. A non-finite h, jac_h or grad_f raises
    EvaluationError naming it, in that order.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float).ravel()
    h_norm = _read_h(problem, x)[1]
    jac = _finite(np.asarray(problem.jac_h(x), dtype=float), "jac_h", x)
    grad_l = _finite(np.asarray(problem.grad_f(x), dtype=float).ravel(), "grad_f", x) - jac.T @ lam
    first = bool(h_norm <= eps0 and vector_norm(grad_l) <= eps1)
    if not first:
        return False, False
    if math.isinf(eps2):
        return True, True
    q = kernel_basis(jac)  # a full SVD: Dh may have lost rank here
    reduced = _finite(_symmetrize(q.T @ _lagrangian_hess(problem, x, lam, q)), "hess_h", x)
    return True, bool(sym_eig_min(reduced, vector=False)[0] >= -eps2)
