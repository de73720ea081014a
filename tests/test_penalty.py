"""Penalty evaluation: multipliers, gradient, Hessian, thresholds, region test.

Sphere quantities have closed forms (for f = <x, w>, h = ||x||^2 - 1):
lambda(x) = <x, w> / (2 ||x||^2) and grad lambda = w/(2||x||^2) - <x,w> x/||x||^4,
which this file uses as the independent oracle for the SVD-based code paths.
"""

import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fletcher_penalty import (
    EvaluationError,
    PenaltyEval,
    RankDeficiencyError,
    SvdResult,
    beta_thresholds,
    builtin_problem,
    certify,
    dlambda_jacobian,
    evaluate,
    in_region,
    kernel_basis,
    lagrangian_check,
    layered_grad,
    layered_hess,
    linear_cost,
    make_sphere,
    multipliers,
    penalty_grad,
    penalty_hess,
    penalty_value,
    random_point_in_region,
)
from fletcher_penalty.derivative_check import fd_grad, fd_jacobian, relative_error

from conftest import ALL_BUILTIN_IDS, kernel_oracle, make_affine_toy


def sphere_lambda(x, w):
    return float(x @ w) / (2.0 * float(x @ x))


def sphere_dlambda(x, w):
    nx2 = float(x @ x)
    return w / (2.0 * nx2) - float(x @ w) * x / nx2**2


@pytest.fixture(scope="module")
def sphere_w():
    w = np.zeros(5)
    w[0] = 1.0
    return make_sphere(5, w), w


def test_multipliers_at_w(sphere_w):
    p, w = sphere_w
    lam, res = multipliers(p, w)
    assert lam[0] == pytest.approx(0.5, abs=1e-14)
    assert res.sigma_min == pytest.approx(2.0, abs=1e-12)


def test_multipliers_scaled_point(sphere_w):
    p, w = sphere_w
    x = 1.1 * w
    lam, _ = multipliers(p, x)
    assert lam[0] == pytest.approx(sphere_lambda(x, w), abs=1e-14)
    assert lam[0] == pytest.approx(0.45454545454545453, abs=1e-12)
    # cross-check against an independent least-squares solve
    lstsq = np.linalg.lstsq(p.jac_h(x).T, p.grad_f(x), rcond=None)[0]
    np.testing.assert_allclose(lam, lstsq, atol=1e-13)


def test_multipliers_zero_gradient():
    from dataclasses import replace

    p = make_affine_toy(seed=2)[0]
    x = p.init_point(0)
    n = p.dim_x
    pz = replace(p, f=lambda y: 0.0, grad_f=lambda y: np.zeros(n), hess_f=lambda y, v: np.zeros(np.shape(v)))
    lam, _ = multipliers(pz, x)
    np.testing.assert_allclose(lam, 0.0, atol=1e-15)


def test_multipliers_residual_invariant(sphere_w):
    p, _ = sphere_w
    for seed in range(20):
        x = random_point_in_region(p, seed, scale=0.5)
        lam, _ = multipliers(p, x)
        jac = p.jac_h(x)
        grad_f = p.grad_f(x)
        resid = np.linalg.norm(jac @ jac.T @ lam - jac @ grad_f)
        assert resid <= 1e-9 * (1.0 + np.linalg.norm(grad_f))


def test_rank_deficiency_names_point(sphere_w):
    p, _ = sphere_w
    with pytest.raises(RankDeficiencyError) as exc:
        multipliers(p, np.zeros(5))
    assert "at point" in str(exc.value)
    np.testing.assert_array_equal(exc.value.point, np.zeros(5))


def test_penalty_value_feasible_equals_f(sphere_w):
    p, w = sphere_w
    x = p.init_point(3)
    assert penalty_value(p, x, 4.0) == pytest.approx(p.f(x), abs=1e-12)


def test_penalty_value_scaled_point(sphere_w):
    p, w = sphere_w
    # f - h*lam + beta h^2 with h = 0.21, lam = 1.1/2.42
    expected = 1.1 - 0.21 * (1.1 / 2.42) + 0.21**2
    assert penalty_value(p, 1.1 * w, 1.0) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(1.0486454545454546, abs=1e-12)


def test_penalty_value_beta_zero(sphere_w):
    p, w = sphere_w
    x = 1.1 * w
    lam, _ = multipliers(p, x)
    h = p.h(x)
    assert penalty_value(p, x, 0.0) == pytest.approx(p.f(x) - float(h @ lam), abs=1e-13)


def test_penalty_grad_feasible_is_layered_grad(sphere_w):
    p, _ = sphere_w
    for seed in range(5):
        x = p.init_point(seed)
        g = penalty_grad(p, x, 3.0)
        rg = layered_grad(p, x)
        assert np.linalg.norm(g - rg) <= 1e-9 * (1.0 + np.linalg.norm(p.grad_f(x)))


def test_penalty_grad_scaled_point(sphere_w):
    p, w = sphere_w
    x = 1.1 * w
    # grad_M f = 0, Dh^T h = 0.462 w, Dlam^T h = -0.086777 w
    dl_h = 0.21 * sphere_dlambda(x, w)
    expected = 2.0 * (2.0 * 1.1 * 0.21) * w - dl_h
    g = penalty_grad(p, x, 1.0)
    np.testing.assert_allclose(g, expected, atol=1e-12)
    assert g[0] == pytest.approx(1.0107768595041323, abs=1e-12)


def test_penalty_grad_zero_at_feasible_critical():
    # first-order critical feasible point: both non-tangent terms vanish
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    from fletcher_penalty import make_rayleigh_sphere

    p = make_rayleigh_sphere(a)
    e1 = np.eye(4)[0]
    assert np.linalg.norm(penalty_grad(p, e1, 5.0)) <= 1e-12


def test_penalty_grad_fd_consistency(builtins):
    for p in builtins.values():
        for seed in range(50):
            x = random_point_in_region(p, seed, scale=0.5)
            beta = [0.0, 1.0, 10.0][seed % 3]
            g = penalty_grad(p, x, beta)
            fd = fd_grad(lambda y: penalty_value(p, y, beta), x)
            assert relative_error(g, fd) <= 1e-6


def test_orthogonal_split(builtins):
    for p in builtins.values():
        for seed in range(10):
            x = random_point_in_region(p, seed, scale=0.4)
            beta = 2.5
            ev = evaluate(p, x, beta, with_grad=True)
            q = kernel_basis(ev.jac)
            dlam = dlambda_jacobian(p, x)
            dl_h = dlam.T @ ev.h_val
            rg = layered_grad(p, x)
            tangent = q @ (q.T @ ev.grad_g)
            normal = ev.grad_g - tangent
            np.testing.assert_allclose(tangent, rg - q @ (q.T @ dl_h), atol=1e-10)
            np.testing.assert_allclose(
                normal, 2.0 * beta * ev.jac.T @ ev.h_val - (dl_h - q @ (q.T @ dl_h)), atol=1e-10
            )
            assert np.linalg.norm(tangent + normal - ev.grad_g) <= 1e-10


def test_beta_affinity(builtins):
    for p in builtins.values():
        x = random_point_in_region(p, 11, scale=0.4)
        b0, b1, bm = 0.5, 4.0, 1.75
        t = (bm - b0) / (b1 - b0)
        g = penalty_value(p, x, b0) * (1 - t) + penalty_value(p, x, b1) * t
        assert g == pytest.approx(penalty_value(p, x, bm), abs=1e-12)
        gr = penalty_grad(p, x, b0) * (1 - t) + penalty_grad(p, x, b1) * t
        np.testing.assert_allclose(gr, penalty_grad(p, x, bm), atol=1e-12)


def test_adjoint_gradient_matches_dense_and_fd(builtins):
    # the adjoint (Dlambda)^T h against the dense multiplier Jacobian and
    # against central differences of the penalty value, on every built-in
    # and the affine toy
    problems = dict(builtins)
    problems["affine"] = make_affine_toy(seed=4)[0]
    beta = 2.0
    for p in problems.values():
        for seed in range(5):
            x = random_point_in_region(p, seed, scale=0.4)
            ev = evaluate(p, x, beta)
            normal = 2.0 * beta * ev.jac.T @ ev.h_val
            adjoint = layered_grad(p, x) + normal - ev.grad_g
            dense = dlambda_jacobian(p, x).T @ ev.h_val
            np.testing.assert_allclose(adjoint, dense, atol=1e-10 * (1.0 + np.linalg.norm(dense)))
            fd = fd_grad(lambda y: penalty_value(p, y, beta), x)
            assert relative_error(ev.grad_g, fd) <= 1e-6


def _assert_same_fields(a, b):
    for name in PenaltyEval._fields:
        u, v = getattr(a, name), getattr(b, name)
        if isinstance(u, SvdResult):
            assert all(np.array_equal(getattr(u, k), getattr(v, k)) for k in ("u", "s", "vt"))
        else:
            assert np.array_equal(u, v), name


def test_evaluate_completes_a_value_only_evaluation(builtins, monkeypatch):
    from fletcher_penalty import penalty

    svds = []
    real_svd = penalty.svd
    monkeypatch.setattr(penalty, "svd", lambda a: svds.append(a) or real_svd(a))
    for p in builtins.values():
        p, calls = _count_calls(p)
        x = random_point_in_region(p, 2, scale=0.4)
        value_only = evaluate(p, x, 3.0, with_grad=False)
        assert value_only.grad_g is None
        done = evaluate(p, value_only, 3.0)
        assert done.g_val == value_only.g_val and done.jac_svd is value_only.jac_svd
        # field by field, the completed evaluation is the direct one
        _assert_same_fields(done, evaluate(p, x, 3.0))
        # at another beta the point is re-based: one f and one hess_h product,
        # no h, jac_h, grad_f or SVD, and the same record as a direct evaluation
        calls.clear()
        svds.clear()
        rebased = evaluate(p, done, 4.0)
        assert calls == {"f": 1, "hess_h": 1} and svds == []
        _assert_same_fields(rebased, evaluate(p, x, 4.0))


def test_evaluation_norms_equal_numpy_norm_bitwise(builtins):
    for p in builtins.values():
        for seed in range(5):
            ev = evaluate(p, random_point_in_region(p, seed, scale=0.4), 3.0)
            assert ev.h_norm == float(np.linalg.norm(ev.h_val))
            assert ev.grad_norm == float(np.linalg.norm(ev.grad_g))


def test_dlambda_closed_form_at_w(sphere_w):
    p, w = sphere_w
    dlam = dlambda_jacobian(p, w)
    np.testing.assert_allclose(dlam, (-0.5 * w).reshape(1, 5), atol=1e-12)
    np.testing.assert_allclose(dlam[0], sphere_dlambda(w, w), atol=1e-12)


def test_dlambda_constant_for_linear_toy():
    toy, a, base, _ = make_affine_toy(seed=5)
    from dataclasses import replace

    n = toy.dim_x
    c = np.arange(1.0, n + 1.0)
    cost = linear_cost(c)
    lin = replace(toy, f=cost.value, grad_f=cost.grad, hess_f=cost.hess)
    for seed in range(3):
        dlam = dlambda_jacobian(lin, lin.init_point(seed))
        np.testing.assert_allclose(dlam, 0.0, atol=1e-12)


def test_dlambda_fd_oracle(builtins):
    for p in builtins.values():
        for seed in range(10):
            x = random_point_in_region(p, seed, scale=0.4)
            dlam = dlambda_jacobian(p, x)
            fd = fd_jacobian(lambda y: multipliers(p, y)[0], x)
            assert relative_error(dlam, fd) <= 1e-5


@pytest.mark.parametrize("entry", [
    "dlambda_jacobian", "beta_thresholds", "certify", "layered_hess", "lagrangian_check",
    "penalty_hess",
])
def test_non_finite_hess_h_raises_evaluation_error(entry):
    # outside the solver too a NaN hess_h is an evaluator failure, not a NaN or a ValueError
    p = builtin_problem("rayleigh", n=5)
    bad = replace(p, hess_h=lambda x, w, v: np.full(np.shape(v), np.nan))
    x = p.init_point(0)
    calls = {
        "dlambda_jacobian": lambda: dlambda_jacobian(bad, x),
        "beta_thresholds": lambda: beta_thresholds(bad, x),
        "certify": lambda: certify(bad, x, 1.0, 1.0, 1.0),
        "layered_hess": lambda: layered_hess(bad, x),
        "lagrangian_check": lambda: lagrangian_check(bad, x, multipliers(p, x)[0], 1e9, 1e9, 1.0),
        "penalty_hess": lambda: penalty_hess(bad, x, 1.0),
    }
    with pytest.raises(EvaluationError, match="^hess_h returned non-finite"):
        calls[entry]()


@pytest.mark.parametrize("n", [5, 100])  # Dh factored by LAPACK's SVD, and by its Gram matrix
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_jac_h_raises_evaluation_error(n, bad):
    # jac_h's output is scanned once, by svd, and a non-finite entry is named as jac_h's
    p = builtin_problem("rayleigh", n=n)

    def jac_h(x):
        jac = p.jac_h(x)
        jac[0, 1] = bad
        return jac

    with pytest.raises(EvaluationError, match="^jac_h returned non-finite"):
        evaluate(replace(p, jac_h=jac_h), p.init_point(0), 1.0)


def _one_entry_set(evaluator, value):
    """evaluator with the first entry of its output (f's value itself) replaced by value."""
    def wrapped(*args):
        out = np.array(evaluator(*args), dtype=float)
        if out.ndim == 0:
            return value
        out.flat[0] = value
        return out

    return wrapped


@pytest.mark.parametrize("n", [5, 100])  # Dh factored by LAPACK's SVD, and by its Gram matrix
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["h", "grad_f", "f", "jac_h", "hess_f", "hess_h"])
def test_non_finite_evaluator_output_is_named_by_evaluate(n, bad, name):
    # each check reads a scalar the point computes anyway and scans the output only
    # when that scalar is not finite; the error names the evaluator at fault
    p = builtin_problem("rayleigh", n=n)
    x = p.init_point(0)
    bad_p = replace(p, **{name: _one_entry_set(getattr(p, name), bad)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(EvaluationError) as info:
            evaluate(bad_p, x, 1.0)
    form = "f returned a non-finite value at %s" if name == "f" else (
        name + " returned non-finite values at %s")
    # x is named on one line, which the CLI prints as its one error line
    assert str(info.value) == form % np.array2string(x, max_line_width=sys.maxsize)
    if np.isnan(bad):  # NaN propagates quietly: nothing is printed before the error
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("entry", ["evaluate", "penalty_grad", "multipliers"])
def test_non_finite_grad_f_raises_before_any_warning(entry, bad):
    # vdot(grad_f, grad_f) is read as soon as grad_f returns, so an inf raises before
    # the multipliers' matmul can print "invalid value encountered", as a NaN does
    p = builtin_problem("rayleigh", n=5)
    bad_p = replace(p, grad_f=lambda x: np.full(np.shape(x), bad))
    calls = {"evaluate": lambda x: evaluate(bad_p, x, 1.0),
             "penalty_grad": lambda x: penalty_grad(bad_p, x, 1.0),
             "multipliers": lambda x: multipliers(bad_p, x)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="^grad_f returned non-finite"):
            calls[entry](p.init_point(0))


@pytest.mark.parametrize("entry", ["evaluate", "penalty_value"])
def test_finite_grad_f_whose_square_overflows_warns_of_nothing(entry):
    # ||grad f||^2 = 1e401 overflows in the finiteness check, which therefore reads it
    # through vdot and prints no overflow; every entry is finite, so the point evaluates
    p = builtin_problem("rayleigh", n=10)
    big = replace(p, grad_f=lambda x: np.full(10, 1e200))
    calls = {"evaluate": lambda x: evaluate(big, x, 1.0, with_grad=False).g_val,
             "penalty_value": lambda x: penalty_value(big, x, 1.0)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(calls[entry](p.init_point(0)))


@pytest.mark.parametrize("entry", [evaluate, penalty_hess], ids=["evaluate", "penalty_hess"])
def test_negative_beta_raises_value_error(entry):
    p = builtin_problem("rayleigh", n=5)
    with pytest.raises(ValueError, match="^beta must be nonnegative$"):
        entry(p, p.init_point(0), -1.0)


@pytest.mark.parametrize("n", [5, 100])
def test_finite_h_whose_norm_overflows_is_not_called_non_finite(n):
    # ||h|| = inf here, but every entry of h is finite: the full scan that follows a
    # non-finite norm passes, and the point is evaluated
    p = builtin_problem("rayleigh", n=n)
    bad = replace(p, h=lambda x: np.full(p.dim_h, 1e200))
    with np.errstate(over="ignore"):
        ev = evaluate(bad, p.init_point(0), 1.0)
    assert ev.h_norm == np.inf and np.isfinite(ev.h_val).all()
    assert ev.grad_g is not None


@pytest.mark.parametrize("pid", ALL_BUILTIN_IDS)
def test_penalty_hess_is_exactly_symmetric_and_assembled_as_written(pid):
    # the solver's Cholesky test and eigenstep read one triangle of H~ as it is, so H~
    # must be exactly symmetric; its in-place assembly gives the bits of the formula
    p = builtin_problem(pid, seed=2)
    for seed in range(2):
        for x in (p.init_point(seed), 1.05 * p.init_point(seed)):
            jac, eye = p.jac_h(x), np.eye(x.size)
            ev = evaluate(p, x, 1.0, with_grad=False)
            cross = jac.T @ dlambda_jacobian(p, x)
            lag = p.hess_f(x, eye) - p.hess_h(x, ev.lambda_val, eye)
            normal = jac.T @ jac + p.hess_h(x, ev.h_val, eye)
            for beta in (0.0, 3.0):
                h = penalty_hess(p, x, beta)
                assert np.array_equal(h, h.T)
                formula = lag - cross - cross.T + 2.0 * beta * normal
                assert np.array_equal(h, 0.5 * (formula + formula.T))


def _count_calls(problem):
    """problem with every evaluator counting its calls in the returned dict."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    names = ("f", "grad_f", "hess_f", "h", "jac_h", "hess_h")
    return replace(problem, **{k: counted(k, getattr(problem, k)) for k in names}), calls


def _fd_penalty_hess(p, x, beta):
    """Symmetrized central differences of the analytic penalty gradient: the reference."""
    fd = fd_jacobian(lambda y: penalty_grad(p, y, beta), x)
    return 0.5 * (fd + fd.T)


@pytest.mark.parametrize("pid", ALL_BUILTIN_IDS)
def test_penalty_hess_matches_fd_of_the_gradient_on_the_feasible_set(pid):
    # h = 0 at the init points, so the dropped sum_i h_i hess lambda_i vanishes
    p = builtin_problem(pid, seed=2)
    for seed in range(2):
        x = p.init_point(seed)
        for beta in (0.0, 3.0):
            assert relative_error(penalty_hess(p, x, beta), _fd_penalty_hess(p, x, beta)) <= 1e-8


@pytest.mark.parametrize("pid", ALL_BUILTIN_IDS)
def test_penalty_hess_off_the_feasible_set_is_within_order_h(pid):
    p = builtin_problem(pid, seed=2)
    for seed in range(3):
        x = random_point_in_region(p, seed, scale=0.3)
        h_norm = float(np.linalg.norm(p.h(x)))
        assert h_norm > 0.0
        for beta in (0.0, 3.0):
            gap = np.max(np.abs(penalty_hess(p, x, beta) - _fd_penalty_hess(p, x, beta)))
            assert gap <= 10.0 * h_norm


@pytest.mark.parametrize("pid, params", [
    ("stiefel", {"n": 8, "p": 2}),
    ("stiefel", {"n": 20, "p": 3}),
    ("product:sphere,stiefel", {}),
])
def test_penalty_hess_min_eig_at_first_order_ends_matches_fd(pid, params):
    # the solver reads curvature only at eps1-stationary iterates, where ||h|| is O(eps1)
    from fletcher_penalty import SolverConfig, gradient_eigenstep, sym_eig_min

    beta = 3.0
    for seed in range(2):
        p = builtin_problem(pid, seed=seed, **params)
        trace = gradient_eigenstep(p, p.init_point(seed), SolverConfig(eps1=1e-5, beta=beta))
        assert trace.termination == "converged"
        ev = evaluate(p, trace.final_x, beta)
        exact = sym_eig_min(penalty_hess(p, ev, beta))[0]
        assert abs(exact - sym_eig_min(_fd_penalty_hess(p, ev.x, beta))[0]) <= 1e-5


def test_penalty_hess_of_a_completed_evaluation_takes_one_hess_f_and_m_plus_2_hess_h(monkeypatch):
    from fletcher_penalty import penalty

    p, calls = _count_calls(builtin_problem("stiefel", n=8, p=2, seed=3))
    ev = evaluate(p, random_point_in_region(p, 1, scale=0.2), 2.0)
    calls.clear()
    svd_shapes, evaluations = [], []
    real_svd, real_evaluate = penalty.svd, penalty.evaluate
    monkeypatch.setattr(penalty, "svd", lambda a: svd_shapes.append(np.shape(a)) or real_svd(a))
    monkeypatch.setattr(penalty, "evaluate",
                        lambda *a, **k: evaluations.append(a) or real_evaluate(*a, **k))
    hess = penalty_hess(p, ev, 2.0)
    assert calls == {"hess_f": 1, "hess_h": p.dim_h + 2}
    assert svd_shapes == [] and evaluations == []
    # the same Hessian as from the bare point, which redoes the point data
    assert hess.tobytes() == penalty_hess(p, ev.x, 2.0).tobytes()


def test_penalty_hess_warns_of_sigma_lb_once():
    # sigma_min(Dh) = 2||x|| ~ 2 lies below a declared bound of 3 everywhere in the region
    p = builtin_problem("sphere", n=4)
    p = replace(p, region=replace(p.region, sigma_lb=3.0))
    with pytest.warns(RuntimeWarning, match="dips below the declared lower bound") as record:
        penalty_hess(p, p.init_point(0), 1.0)
    assert len(record) == 1


def test_penalty_hess_projected_matches_layered():
    # feasible critical point, quadratic cost on the sphere
    from fletcher_penalty import make_rayleigh_sphere

    p = make_rayleigh_sphere(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    x = np.eye(5)[0]
    hg = penalty_hess(p, x, 1.0)
    q, reduced, _ = kernel_oracle(p, x)
    projected = q.T @ hg @ q
    np.testing.assert_allclose(projected, reduced, atol=1e-5)
    assert layered_hess(p, x).min_eig == pytest.approx(np.linalg.eigvalsh(projected)[0], abs=1e-5)


def test_penalty_hess_exact_for_affine_quadratic_toy():
    toy, a, base, p_mat = make_affine_toy(seed=8)
    beta = 1.5
    x = toy.init_point(1)
    # all third derivatives vanish: assemble the analytic Hessian directly
    dlam = np.linalg.solve(a @ a.T, a @ p_mat)
    analytic = p_mat - dlam.T @ a - a.T @ dlam + 2.0 * beta * a.T @ a
    np.testing.assert_allclose(penalty_hess(toy, x, beta), analytic, atol=1e-8)


def test_beta_thresholds_closed_form(sphere_w):
    p, w = sphere_w
    th = beta_thresholds(p, w)
    assert th.sigma_min == pytest.approx(2.0, abs=1e-12)
    assert th.sigma_max == pytest.approx(2.0, abs=1e-12)
    assert th.c_lambda == pytest.approx(0.5, abs=1e-12)
    assert th.beta1 == pytest.approx(0.125, abs=1e-12)
    assert th.beta2 == pytest.approx(0.25, abs=1e-12)
    assert th.beta3 == pytest.approx(0.5, abs=1e-12)
    assert th.b_max == pytest.approx(0.5, abs=1e-12)


def test_beta_thresholds_zero_cost():
    from dataclasses import replace

    toy = make_affine_toy(seed=3)[0]
    n = toy.dim_x
    pz = replace(
        toy, f=lambda y: 0.0, grad_f=lambda y: np.zeros(n), hess_f=lambda y, v: np.zeros(np.shape(v))
    )
    th = beta_thresholds(pz, pz.init_point(0))
    assert th.c_lambda == pytest.approx(0.0, abs=1e-14)
    assert th.beta1 == pytest.approx(0.0, abs=1e-14)
    assert th.beta2 == pytest.approx(0.0, abs=1e-14)
    assert th.beta3 == pytest.approx(1.0 / th.sigma_min, rel=1e-12)


def test_beta_thresholds_of_a_completed_evaluation_add_m_hess_h_products():
    # St(8, 2), m = 3: the gradient's Lagrangian-Hessian block is reused, so
    # Dlambda needs only the products H(e_i) grad_M f and no hess_f at all
    base = builtin_problem("stiefel", n=8, p=2, seed=3)
    calls = {"hess_f": 0, "hess_h": 0}

    def counted(name):
        def call(*args):
            calls[name] += 1
            return getattr(base, name)(*args)
        return call

    p = replace(base, hess_f=counted("hess_f"), hess_h=counted("hess_h"))
    ev = evaluate(p, random_point_in_region(p, 2, scale=0.3), 2.0)
    calls.update(hess_f=0, hess_h=0)
    th = beta_thresholds(p, ev)
    assert calls == {"hess_f": 0, "hess_h": p.dim_h}
    assert th == beta_thresholds(base, ev.x)


@pytest.mark.parametrize("name", ["sphere", "rayleigh", "stiefel", "product"])
def test_beta_thresholds_unless_below_rules_out_only_what_lies_below_b_max(builtins, name):
    # ||Dlambda||_2 <= ||Dlambda||_F <= sqrt(m) ||Dlambda||_2, so the bound lies in
    # [b_max, sqrt(m) b_max]: it never rules out beta = b_max itself (on the m = 1
    # problems F equals c_lambda, a tie up to rounding), and it rules out a beta
    # past sqrt(m) b_max without an SVD
    p = builtins[name]
    for seed in range(20):
        ev = evaluate(p, random_point_in_region(p, seed, scale=0.5), 1.0)
        exact = beta_thresholds(p, ev)
        for beta in (exact.b_max, np.nextafter(exact.b_max, 0.0)):
            assert beta_thresholds(p, ev, below=beta) == exact
        assert beta_thresholds(p, ev, below=1.01 * np.sqrt(p.dim_h) * exact.b_max) is None


def test_b_max_is_max(builtins):
    for p in builtins.values():
        th = beta_thresholds(p, p.init_point(2))
        assert th.b_max == max(th.beta1, th.beta2, th.beta3)


def test_in_region_cases():
    toy = make_affine_toy(seed=1, radius=2.0)[0]
    assert in_region(toy, toy.init_point(4))
    w = np.zeros(5)
    w[0] = 1.0
    p = make_sphere(5, w)
    assert not in_region(p, 1.3 * w)  # ||h|| = 0.69 > 0.5
    assert in_region(p, p.init_point(0))


def test_in_region_boundary_inclusive():
    # single coordinate constraint makes the boundary value exact in floating point
    from fletcher_penalty import Problem, RegionParams

    n = 3
    p = Problem(
        dim_x=n,
        dim_h=1,
        region=RegionParams(radius=1.0, sigma_lb=1.0),
        f=lambda x: 0.0,
        grad_f=lambda x: np.zeros(n),
        hess_f=lambda x, v: np.zeros(np.shape(v)),
        h=lambda x: np.array([x[0]]),
        jac_h=lambda x: np.array([[1.0, 0.0, 0.0]]),
        hess_h=lambda x, w, v: np.zeros(np.shape(v)),
        init_point=lambda seed: np.zeros(n),
        name="axis",
    )
    assert in_region(p, np.array([1.0, 0.0, 0.0]))
    assert not in_region(p, np.array([np.nextafter(1.0, 2.0), 0.0, 0.0]))
