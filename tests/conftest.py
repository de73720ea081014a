"""Shared fixtures: built-in problems, small synthetic toys for edge cases, and reference
formulas that the library's faster forms must match bit for bit."""

import numpy as np
import pytest

from fletcher_penalty import (
    Problem,
    RegionParams,
    StepSizeError,
    builtin_problem,
    quadratic_cost,
)
from fletcher_penalty.problems import _sym_basis

ALL_BUILTIN_IDS = ("sphere", "rayleigh", "stiefel", "product:sphere,stiefel")


@pytest.fixture(scope="session")
def sphere5():
    return builtin_problem("sphere", n=5)


@pytest.fixture(scope="session")
def rayleigh10():
    return builtin_problem("rayleigh", n=10)


@pytest.fixture(scope="session")
def stiefel83():
    return builtin_problem("stiefel", n=8, p=3, seed=0)


@pytest.fixture(scope="session")
def product_spheres():
    return builtin_problem("product:sphere,sphere", n=3, seed=0)


@pytest.fixture(scope="session")
def builtins(sphere5, rayleigh10, stiefel83, product_spheres):
    return {
        "sphere": sphere5,
        "rayleigh": rayleigh10,
        "stiefel": stiefel83,
        "product": product_spheres,
    }


def replay_plateau_rules(stages, gamma):
    """Whether each plateau stage's beta and budget follow from the stage before it.

    The audit leaves the schedule out: a trace holds no gamma.
    """
    for prev, nxt in zip(stages, stages[1:]):
        if prev.stop_reason == "b_trigger":
            beta, ratio = gamma * prev.b_value, gamma * prev.b_value / prev.beta
        elif prev.stop_reason in ("budget", "backtrack_failure"):
            beta, ratio = gamma * prev.beta, gamma
        else:
            return False
        if (nxt.beta, nxt.lp) != (beta, ratio**4 * prev.lp):
            return False
    return True


def make_affine_toy(n=5, m=2, seed=0, radius=2.0, definite=True):
    """Quadratic cost with a full-rank affine constraint h(x) = A(x - base).

    The constraint's Taylor remainder is identically zero, its Jacobian is
    constant, and the multiplier map is affine, so every penalty quantity
    has a closed form; used for exactness tests.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    base = rng.standard_normal(n)
    q = rng.standard_normal((n, n))
    q, _ = np.linalg.qr(q)
    eigs = rng.uniform(0.5, 3.0, size=n) if definite else np.linspace(-1.0, 3.0, n)
    p_mat = q @ np.diag(eigs) @ q.T
    p_mat = 0.5 * (p_mat + p_mat.T)
    cost = quadratic_cost(p_mat)
    sigma_min = np.linalg.svd(a, compute_uv=False)[-1]

    def init_point(seed_):
        step = np.random.default_rng(seed_).standard_normal(n)
        step *= 0.2 / np.linalg.norm(step)
        return base + step

    return Problem(
        dim_x=n,
        dim_h=m,
        region=RegionParams(radius=radius, sigma_lb=0.99 * sigma_min),
        f=cost.value,
        grad_f=cost.grad,
        hess_f=cost.hess,
        h=lambda x: a @ (x - base),
        jac_h=lambda x: a.copy(),
        hess_h=lambda x, w, v: np.zeros(np.shape(v)),
        init_point=init_point,
        name="affine-toy",
    ), a, base, p_mat


def make_saddle_toy():
    """Kernel direction e_1 carries curvature -1; the constrained block is convex.

    h pins coordinates 2 and 3, so x = 0 is feasible with zero penalty
    gradient and a pure negative-curvature direction along e_1.
    """
    a = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    p_mat = np.diag([-1.0, 1.0, 1.0])
    cost = quadratic_cost(p_mat)
    return Problem(
        dim_x=3,
        dim_h=2,
        region=RegionParams(radius=5.0, sigma_lb=1.0),
        f=cost.value,
        grad_f=cost.grad,
        hess_f=cost.hess,
        h=lambda x: a @ x,
        jac_h=lambda x: a.copy(),
        hess_h=lambda x, w, v: np.zeros(np.shape(v)),
        init_point=lambda seed: np.zeros(3),
        name="saddle-toy",
    )


def make_rank_crossing_toy():
    """Jacobian collapses to zero once the free coordinate x_2 drops below 0.25.

    The cost pulls x_2 from 0.3 toward -1 along the constraint's kernel, so
    gradient steps must cross the threshold. Synthetic error-path fixture:
    the evaluators are not a consistent derivative family, they only
    exercise the rank-deficiency handling.
    """
    n = 3

    def jac(x):
        row = np.zeros((1, n))
        row[0, 0] = 0.1 if x[1] > 0.25 else 0.0
        return row

    target = np.array([0.5, -1.0, 0.0])
    return Problem(
        dim_x=n,
        dim_h=1,
        region=RegionParams(radius=1.0, sigma_lb=0.1),
        f=lambda x: 0.5 * float((x - target) @ (x - target)),
        grad_f=lambda x: x - target,
        hess_f=lambda x, v: np.array(v, dtype=float),
        h=lambda x: np.array([0.1 * x[0]]),
        jac_h=jac,
        hess_h=lambda x, w, v: np.zeros(np.shape(v)),
        init_point=lambda seed: np.array([0.5, 0.3, 0.2]),
        name="rank-crossing-toy",
    )


def kernel_oracle(problem, x, lam=None):
    """Kernel basis Q of Dh(x) from a full SVD, Q^T (hess f - H(lam)) Q and its least eigenvalue.

    The independent reference for the library's curvature readers: lam defaults to the
    least-squares multipliers from lstsq, Q takes the right singular vectors past the
    numerical rank at numpy's default cutoff (so a rank-deficient Dh keeps a larger kernel),
    and the product is symmetrized by halves, which cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    jac = np.asarray(problem.jac_h(x), dtype=float)
    if lam is None:
        lam = np.linalg.lstsq(jac.T, problem.grad_f(x), rcond=None)[0]
    _, s, vt = np.linalg.svd(jac, full_matrices=True)
    rank = int(np.sum(s > s.max(initial=0.0) * max(jac.shape) * np.finfo(float).eps))
    q = vt[rank:].T
    reduced = q.T @ (problem.hess_f(x, q) - problem.hess_h(x, np.asarray(lam, dtype=float), q))
    reduced = 0.5 * reduced + 0.5 * reduced.T
    return q, reduced, float(np.linalg.eigvalsh(reduced)[0])


def reference_restore(problem, x, step, t_end):
    """restore_feasibility written with the flow's own sign, -(Dh^T h), in every RK4 stage.

    The reference for the library's loop, whose stages are Dh^T h and whose updates carry
    the sign: the two give the same bits (negation and x + (-y) = x - y are exact).
    """
    def h_at(y):
        return np.asarray(problem.h(y), dtype=float).ravel()

    def rhs(y, hv=None):
        return -(problem.jac_h(y).T @ (h_at(y) if hv is None else hv))

    h_x = h_at(x)
    phi = 0.5 * float(h_x @ h_x)
    log, t, dt, k1 = [(0.0, phi)], 0.0, float(step), None
    t_rounding = float(np.finfo(float).eps) * t_end
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end and phi > 1e-16:
            last = t_end - t <= dt + len(log) * t_rounding
            dt_eff = t_end - t if last else dt
            if k1 is None:
                k1 = rhs(x, h_x)
            k2 = rhs(x + 0.5 * dt_eff * k1)
            k3 = rhs(x + 0.5 * dt_eff * k2)
            k4 = rhs(x + dt_eff * k3)
            x_new = x + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            h_new = h_at(x_new)
            phi_new = 0.5 * float(h_new @ h_new)
            if not phi_new <= phi:
                dt *= 0.5
                if dt < step * 2.0**-40:
                    raise StepSizeError("reference: halving cannot restore decrease")
                continue
            x, h_x, k1 = x_new, h_new, None
            t = t_end if last else t + dt_eff
            phi, dt = phi_new, min(step, 2.0 * dt)
            log.append((t, phi))
    return x, log


def reference_two_loop(pairs, grad, svd, beta):
    """L-BFGS's two-loop recursion with NumPy scalars, y.y formed anew from the newest y.

    The reference for solver._two_loop, which carries float scalars and reads the y.y kept
    in the pair (s, y, s.y, y.y); only s, y and s.y are read here. With vt = svd.vt and
    P_T = I - vt^T vt, the recursion with H0 = (s.y / y.y) I starts from -P_T grad, its
    result is projected by P_T, and the normal step -vt^T diag(1/(2 beta s^2)) vt grad is
    added, in _two_loop's order of operations.
    """
    vt = svd.vt
    normal = vt.dot(grad)
    q, coefs = normal.dot(vt) - grad, []
    for s, y, sy, _ in reversed(pairs):
        coefs.append(s.dot(q) / sy)
        q -= coefs[-1] * y
    s, y, sy, _ = pairs[-1]
    q *= sy / y.dot(y)
    for (s, y, sy, _), a in zip(pairs, reversed(coefs)):
        q += (a - y.dot(q) / sy) * s
    return q - (vt.dot(q) + normal / (2.0 * beta * svd.s**2)).dot(vt)


def reference_stiefel(n, p):
    """The Stiefel h, jac_h and hess_h in the basis form: 2 (X B_k) and 2 S(w) v, with @.

    The reference for make_stiefel's evaluators, which fold the factor 2 into the basis.
    """
    m = p * (p + 1) // 2
    basis = _sym_basis(p)
    basis_flat = basis.reshape(m, p * p)

    def h(x):
        xm = x.reshape(n, p)
        return basis_flat @ (xm.T @ xm - np.eye(p)).ravel()

    def jac(x):
        return 2.0 * (x.reshape(n, p) @ basis).reshape(m, n * p)

    def hess(x, w, v):
        s = (np.asarray(w, dtype=float) @ basis_flat).reshape(p, p)
        return 2.0 * (s @ v.reshape(n, p, -1)).reshape(v.shape)

    return h, jac, hess
