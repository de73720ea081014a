"""Finite-difference oracles and the per-problem report machinery."""

from dataclasses import replace

import numpy as np
import pytest

from fletcher_penalty import (
    EvaluationError,
    check_problem,
    fd_grad,
    fd_jacobian,
    make_rayleigh_sphere,
    make_sphere,
    penalty_grad,
    relative_error,
)
from fletcher_penalty.derivative_check import SECOND_ORDER_STEP, reports_to_json


def test_fd_grad_quadratic():
    x = np.array([1.0, 2.0])
    g = fd_grad(lambda y: float(y @ y), x)
    np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)


def test_fd_grad_constant():
    g = fd_grad(lambda y: 3.5, np.ones(4))
    np.testing.assert_allclose(g, 0.0, atol=0)


def test_fd_grad_matches_analytic_penalty_gradient():
    w = np.zeros(5)
    w[0] = 1.0
    p = make_sphere(5, w)
    from fletcher_penalty import penalty_value

    fd = fd_grad(lambda y: penalty_value(p, y, 1.0), 1.1 * w)
    assert fd[0] == pytest.approx(1.0107768595041323, abs=1e-8)
    np.testing.assert_allclose(fd, penalty_grad(p, 1.1 * w, 1.0), atol=1e-8)


def test_fd_grad_nonfinite_raises():
    with pytest.raises(EvaluationError):
        fd_grad(lambda y: float("nan"), np.ones(2))


def test_fd_jacobian_sphere_row():
    w = np.zeros(3)
    w[0] = 1.0
    p = make_sphere(3, w)
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(fd_jacobian(p.h, e1), [[2.0, 0.0, 0.0]], atol=1e-9)


def test_fd_jacobian_of_multipliers():
    w = np.zeros(5)
    w[0] = 1.0
    p = make_sphere(5, w)
    from fletcher_penalty import multipliers

    fd = fd_jacobian(lambda y: multipliers(p, y)[0], w)
    np.testing.assert_allclose(fd, (-0.5 * w).reshape(1, 5), atol=1e-9)


def test_fd_jacobian_linear_exact():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 6))
    fd = fd_jacobian(lambda y: a @ y, rng.standard_normal(6))
    np.testing.assert_allclose(fd, a, atol=1e-10)


def test_check_problem_all_builtins_pass(builtins):
    for p in builtins.values():
        reports = check_problem(p, list(range(10)))
        assert all(r.passed for r in reports), [
            (r.target, r.max_rel_err) for r in reports if not r.passed
        ]


def test_check_problem_detects_corrupted_gradient():
    p = make_rayleigh_sphere(np.diag([1.0, 2.0, 3.0, 4.0]))
    bad = replace(p, grad_f=lambda x: p.grad_f(x) + 1e-3)
    reports = {r.target: r for r in check_problem(bad, [0, 1])}
    assert not reports["grad_f"].passed


def test_check_problem_reports_a_nan_error_as_a_failure():
    # NaN only for the dense n-by-n product the check takes; the n-by-m
    # blocks the penalty uses stay finite
    p = make_sphere(3, np.eye(1, 3)[0])

    def hess_h(x, w, v):
        out = p.hess_h(x, w, v)
        return np.full_like(out, np.nan) if out.shape == (3, 3) else out

    reports = {r.target: r for r in check_problem(replace(p, hess_h=hess_h), [0, 1])}
    assert np.isnan(reports["hess_h"].max_rel_err)
    assert reports["hess_h"].worst_point_seed == 0
    assert not reports["hess_h"].passed
    assert all(r.passed for name, r in reports.items() if name != "hess_h")


def test_check_problem_reports_an_evaluator_failure_instead_of_raising():
    # a NaN hess_f makes the penalty gradient and the multiplier Jacobian raise
    # EvaluationError; the report notes those targets as NaN failures
    p = make_sphere(3, np.eye(1, 3)[0])
    bad = replace(p, hess_f=lambda x, v: np.full(np.shape(v), np.nan))
    reports = {r.target: r for r in check_problem(bad, [0, 1])}
    failing = {"hess_f", "penalty_grad", "dlambda_jacobian"}
    assert {name for name, r in reports.items() if not r.passed} == failing
    for name in failing:
        assert np.isnan(reports[name].max_rel_err) and reports[name].worst_point_seed == 0
    assert len(reports) == 6


def test_check_problem_zero_cost_absolute_errors():
    p = make_rayleigh_sphere(np.zeros((4, 4)))
    reports = {r.target: r for r in check_problem(p, list(range(3)))}
    assert all(r.passed for r in reports.values())
    # zero-target reports collapse to absolute roundoff
    for name in ("grad_f", "hess_f", "dlambda_jacobian"):
        assert reports[name].max_rel_err <= 1e-10


def test_check_problem_step_robustness():
    p = make_rayleigh_sphere(np.diag(np.arange(1.0, 6.0)))
    r1 = {r.target: r.passed for r in check_problem(p, [0, 1, 2])}
    x = p.init_point(0)
    dense = p.hess_f(x, np.eye(p.dim_x))
    half = relative_error(dense, fd_jacobian(p.grad_f, x, SECOND_ORDER_STEP / 2))
    full = relative_error(dense, fd_jacobian(p.grad_f, x, SECOND_ORDER_STEP))
    assert (half <= 1e-4) == (full <= 1e-4) == r1["hess_f"]


def test_relative_error_zero_target():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
    assert relative_error(np.zeros(3), 1e-12 * np.ones(3)) <= 2e-12


def test_check_problem_requires_seeds():
    p = make_rayleigh_sphere(np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        check_problem(p, [])


def test_reports_json_shape(builtins):
    import json

    reports = check_problem(builtins["sphere"], [0])
    payload = json.loads(reports_to_json(reports))
    assert {r["target"] for r in payload} == {
        "grad_f",
        "jac_h",
        "penalty_grad",
        "hess_f",
        "hess_h",
        "dlambda_jacobian",
    }
    assert all(
        set(r) == {"target", "max_rel_err", "worst_point_seed", "step_used", "pass"}
        for r in payload
    )
