"""Solver loop, backtracking procedures, plateau scheme, restoration flow."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fletcher_penalty import (
    BacktrackFailureError,
    DecreaseBelowRoundingError,
    EvaluationError,
    SolverConfig,
    StepSizeError,
    beta_thresholds,
    builtin_problem,
    eigen_backtrack,
    evaluate,
    gradient_backtrack,
    gradient_eigenstep,
    make_rayleigh_sphere,
    make_sphere,
    penalty_grad,
    plateau,
    random_point_in_region,
    restore_feasibility,
)

from fletcher_penalty import solver
from fletcher_penalty.solver import _gradient_start

from conftest import ALL_BUILTIN_IDS, make_affine_toy, make_rank_crossing_toy, make_saddle_toy


def diag_rayleigh(n=10, radius=0.5):
    return make_rayleigh_sphere(np.diag(np.arange(1.0, n + 1.0)), radius=radius)


# ---------------------------------------------------------------------------
# backtracking


def test_gradient_backtrack_accepts_first_trial():
    toy = make_affine_toy(seed=0, radius=10.0)[0]
    cfg = SolverConfig(alpha01=0.05)
    x = toy.init_point(0)
    ev = evaluate(toy, x, 1.0)
    alpha, trial, bts = gradient_backtrack(toy, ev, cfg)
    assert alpha == 0.05 and bts == 0
    np.testing.assert_allclose(trial.x, x - 0.05 * ev.grad_g)


def test_gradient_backtrack_keeps_region_near_boundary():
    p = diag_rayleigh()
    # radial point with ||h|| = 0.49
    x = np.sqrt(1.49) * (np.ones(10) / np.sqrt(10.0))
    assert np.linalg.norm(p.h(x)) <= 0.4900001
    _, trial, _ = gradient_backtrack(p, evaluate(p, x, 10.0), SolverConfig())
    assert np.linalg.norm(p.h(trial.x)) <= 0.5


def test_gradient_backtrack_decrease_predicate_replay():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-3, eps2=math.inf, beta=10.0)
    trace = gradient_eigenstep(p, p.init_point(2), cfg)
    grads = [r for r in trace.records if r.kind == "gradient"]
    assert grads
    for r in grads:
        assert r.g_before - r.g_after >= cfg.c1 * r.step_len * r.grad_norm**2 - 1e-15


def test_gradient_start_branches():
    prev = SimpleNamespace(x=np.zeros(2), grad_g=np.array([1.0, 0.0]))

    def start(grad, alpha_prev=0.125):
        ev = SimpleNamespace(x=np.array([0.5, 0.0]), grad_g=np.array(grad))
        return _gradient_start(prev, ev, alpha_prev, 1.0)

    # no previous point: the run's first search, or the first after an eigenstep
    assert _gradient_start(None, prev, 0.25, 1.0) == 0.25
    # y = 0: no curvature to read, so the last accepted step
    assert start([1.0, 0.0]) == 0.125
    # s = (0.5, 0), y = (1, 0): ||s|| / ||y|| = 0.5
    assert start([2.0, 0.0]) == 0.5
    # s.y < 0 and s.y == 0 still give ||s|| / ||y||: the rule needs no sign condition
    assert start([-1.0, 0.0]) == 0.25
    assert start([1.0, 2.5]) == 0.2
    # a large ||s|| / ||y|| (a nearly constant gradient) is clipped to alpha01
    assert start([1.0 + 1e-9, 0.0]) == 1.0


@pytest.mark.parametrize("driver", ["solve", "plateau"])
def test_gradient_search_starts_at_the_spectral_step(driver, monkeypatch):
    # an exact replay of every gradient search's start: the search at ev starts at
    # _gradient_start(prev, ev, alpha_prev, alpha01), where prev is the point of the
    # last search when the last step was a gradient step of the same loop (else
    # None) and alpha_prev the step it accepted; each loop (a plateau stage, whose
    # k restarts at 0) starts from prev = None and alpha_prev = alpha01
    calls = []
    real = solver.gradient_backtrack

    def spy(problem, ev, cfg, alpha0=None):
        out = real(problem, ev, cfg, alpha0)
        calls.append((ev, alpha0, out[0]))
        return out

    monkeypatch.setattr(solver, "gradient_backtrack", spy)
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    if driver == "solve":
        p = diag_rayleigh(n=12)
        trace = gradient_eigenstep(p, np.eye(12)[3] + 1e-6 * np.linspace(-1.0, 1.0, 12), cfg)
    else:
        p = builtin_problem("stiefel", n=8, p=2, seed=1)
        trace = plateau(p, p.init_point(1), replace(cfg, eps2=1e-3), beta0=1e-3, lp0=50)
    assert trace.termination == "converged"
    spectral = clipped = unsigned = held = 0
    pending = iter(calls)
    for r in trace.records:
        if r.k == 0:
            prev, alpha_prev = None, cfg.alpha01
        if r.kind == "gradient":
            ev, alpha0, alpha = next(pending)
            assert (ev.g_val, alpha) == (r.g_before, r.step_len)
            assert alpha0 == _gradient_start(prev, ev, alpha_prev, cfg.alpha01)
            assert r.step_len == alpha0 * cfg.tau1**r.backtracks <= cfg.alpha01
            if prev is not None and np.any(ev.grad_g != prev.grad_g):
                spectral += alpha0 < cfg.alpha01
                clipped += alpha0 == cfg.alpha01
                # a start read across s.y <= 0, where s.s / s.y has no meaning
                unsigned += float((ev.x - prev.x) @ (ev.grad_g - prev.grad_g)) <= 0.0
            held += prev is None and r.k > 0
            prev, alpha_prev = ev, alpha
        elif r.kind == "eigen":
            prev = None
    assert next(pending, None) is None
    assert spectral
    if driver == "plateau":
        assert clipped and len(trace.plateaus) > 1
        assert [r.k for r in trace.records].count(0) >= len(trace.plateaus)
    else:
        assert unsigned and held
        assert "gradient eigen gradient" in " ".join(r.kind for r in trace.records)


@pytest.mark.parametrize("seed", [0, 3, 7919])
def test_grown_gradient_steps_keep_the_guarantees(seed):
    # spectral starts reach alpha01 on St(30, 3); every accepted gradient step,
    # long ones included, stays at most alpha01, passes Armijo and keeps
    # ||h|| <= R, and the run ends converged inside the first-order certificate bounds
    p = builtin_problem("stiefel", n=30, p=3, seed=seed)
    cfg = SolverConfig(eps1=1e-4, beta=3.0)
    trace = gradient_eigenstep(p, p.init_point(seed), cfg)
    assert trace.termination == "converged"
    assert all(r.h_norm <= p.region.radius for r in trace.records)
    for r in trace.records:
        if r.kind == "gradient":
            assert r.step_len <= cfg.alpha01
            assert r.g_before - r.g_after >= cfg.c1 * r.step_len * r.grad_norm**2
    th = beta_thresholds(p, trace.final_eval)
    assert cfg.beta > max(th.beta2, th.beta3)
    cert = trace.final_certificate
    assert cert.eps0_measured <= cfg.eps1 / (cfg.beta * th.sigma_min)
    assert cert.eps1_measured <= (1.0 + th.c_lambda / (cfg.beta * th.sigma_min)) * cfg.eps1


def test_spectral_start_keeps_stiefel_solves_short():
    # St(30, 3), eps1 = 1e-4, beta = 3: the spectral start takes a median of about
    # 66 iterations here, where holding or doubling the last step took about 175
    cfg = SolverConfig(eps1=1e-4, beta=3.0)
    iters = []
    for seed in range(6):
        p = builtin_problem("stiefel", n=30, p=3, seed=seed)
        trace = gradient_eigenstep(p, p.init_point(seed), cfg)
        assert trace.termination == "converged"
        iters.append(trace.iteration_counts()[0])
    assert np.median(iters) <= 100


def test_eigen_backtrack_accepts_small_initial_step():
    toy = make_saddle_toy()
    cfg = SolverConfig(alpha02=0.1, c2=0.4)
    x = np.zeros(3)
    d = np.array([1.0, 0.0, 0.0])
    alpha, trial, bts = eigen_backtrack(toy, evaluate(toy, x, 1.0, with_grad=False), d, -1.0, cfg)
    assert alpha == 0.1 and bts == 0
    np.testing.assert_allclose(trial.x, 0.1 * d)


def test_eigen_records_obey_direction_contract():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    x0 = np.eye(10)[1]  # saddle of the layered Hessian: eigensteps must fire
    trace = gradient_eigenstep(p, x0, cfg)
    eigs = [r for r in trace.records if r.kind == "eigen"]
    assert eigs
    for r in eigs:
        assert r.curvature < -cfg.eps2
        assert r.g_before - r.g_after >= -cfg.c2 * r.step_len**2 * r.curvature - 1e-15
    assert trace.termination == "converged"
    assert p.f(trace.final_x) <= 0.5 + 1e-3


# ---------------------------------------------------------------------------
# gradient_eigenstep


def test_immediate_return_at_critical_point():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    trace = gradient_eigenstep(p, np.eye(10)[0], cfg)
    assert trace.termination == "converged"
    assert trace.iteration_counts()[0] == 0
    assert trace.records[-1].kind == "terminal"


def test_rayleigh_solve_reaches_global_optimum():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    trace = gradient_eigenstep(p, p.init_point(1), cfg)
    assert trace.termination == "converged"
    # oracle: global optimum value is half the smallest eigenvalue
    target = 0.5 * np.linalg.eigvalsh(np.diag(np.arange(1.0, 11.0)))[0]
    assert p.f(trace.final_x) <= target + 1e-3
    steps = [r for r in trace.records if r.kind != "terminal"]
    assert all(r.g_after < r.g_before for r in steps)
    assert all(r.h_norm <= p.region.radius for r in trace.records)


def test_stiefel_linear_cost_solve():
    p = builtin_problem("stiefel", n=8, p=2, seed=3)
    cfg = SolverConfig(eps1=1e-4, eps2=1e-3, beta=5.0)
    trace = gradient_eigenstep(p, p.init_point(3), cfg)
    assert trace.termination == "converged"
    steps = [r for r in trace.records if r.kind != "terminal"]
    assert all(r.g_after < r.g_before for r in steps)
    assert all(r.h_norm <= p.region.radius for r in trace.records)


def test_converged_trace_invariant():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-4, eps2=math.inf, beta=10.0)
    trace = gradient_eigenstep(p, p.init_point(4), cfg)
    assert trace.termination == "converged"
    assert np.linalg.norm(penalty_grad(p, trace.final_x, 10.0)) <= cfg.eps1


def test_termination_certificate_first_order_bounds():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    trace = gradient_eigenstep(p, p.init_point(1), cfg)
    th = beta_thresholds(p, trace.final_x)
    assert cfg.beta > max(th.beta2, th.beta3)
    cert = trace.final_certificate
    assert cert.eps0_measured <= cfg.eps1 / (cfg.beta * th.sigma_min) + 1e-12
    bound = (1.0 + th.c_lambda / (cfg.beta * th.sigma_min)) * cfg.eps1
    assert cert.eps1_measured <= bound + 1e-12


def test_budget_sanity_from_trace():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-4, eps2=math.inf, beta=10.0)
    trace = gradient_eigenstep(p, p.init_point(6), cfg)
    steps = [r for r in trace.records if r.kind != "terminal"]
    total_decrease = sum(r.g_before - r.g_after for r in steps)
    g0 = steps[0].g_before
    g_min = min(r.g_after for r in steps)
    assert total_decrease <= g0 - g_min + 1e-10
    for r in steps:
        if r.kind == "gradient":
            assert r.g_before - r.g_after >= cfg.c1 * r.step_len * cfg.eps1**2 - 1e-15


def test_solver_determinism():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    t1 = gradient_eigenstep(p, p.init_point(1), cfg)
    t2 = gradient_eigenstep(p, p.init_point(1), cfg)
    assert t1.to_json() == t2.to_json()


def test_rejects_eps1_above_half_radius():
    p = diag_rayleigh()
    with pytest.raises(ValueError):
        gradient_eigenstep(p, p.init_point(0), SolverConfig(eps1=0.26, beta=1.0))


def test_rejects_infeasible_start():
    w = np.zeros(5)
    w[0] = 1.0
    p = make_sphere(5, w)
    with pytest.raises(ValueError):
        gradient_eigenstep(p, 1.5 * w, SolverConfig())


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(c2=0.5).validate()
    with pytest.raises(ValueError):
        SolverConfig(c1=1.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(tau1=0.0).validate()
    SolverConfig().validate()


@pytest.mark.parametrize(
    "name",
    ["beta", "c1", "c2", "tau1", "tau2", "alpha01", "alpha02", "max_iters", "max_backtracks"],
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(**{name: value}).validate()


def test_config_allows_infinite_eps2():
    SolverConfig(eps2=math.inf).validate()
    with pytest.raises(ValueError):
        SolverConfig(eps2=math.nan).validate()


def test_solve_takes_thin_svds_and_two_hess_h_per_gradient(monkeypatch):
    # St(8, 2): m = 3 constraints, n = 16 coordinates
    from fletcher_penalty import penalty, solver

    base = builtin_problem("stiefel", n=8, p=2, seed=3)
    hess_h_points = []

    def counted_hess_h(x, w, v):
        hess_h_points.append(x.tobytes())
        return base.hess_h(x, w, v)

    p = replace(base, hess_h=counted_hess_h)
    real_svd, real_evaluate, real_hess = penalty.svd, penalty.evaluate, solver.penalty_hess
    vt_shapes, per_gradient, per_hessian = [], [], []

    def spy_svd(a):
        res = real_svd(a)
        vt_shapes.append(res.vt.shape)
        return res

    def spy_evaluate(problem, x, beta, with_grad=True, **kwargs):
        before = len(hess_h_points)
        ev = real_evaluate(problem, x, beta, with_grad, **kwargs)
        if with_grad:
            per_gradient.append(len(hess_h_points) - before)
        return ev

    def spy_hess(problem, ev, beta):
        before = len(hess_h_points), len(vt_shapes)
        hess = real_hess(problem, ev, beta)
        per_hessian.append((len(hess_h_points) - before[0], len(vt_shapes) - before[1]))
        return hess

    monkeypatch.setattr(penalty, "svd", spy_svd)
    monkeypatch.setattr(penalty, "evaluate", spy_evaluate)
    monkeypatch.setattr(solver, "evaluate", spy_evaluate)
    monkeypatch.setattr(solver, "penalty_hess", spy_hess)
    trace = gradient_eigenstep(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3, beta=5.0))
    assert trace.termination == "converged"
    # every factorization is one point's thin (3, 16) SVD; each penalty
    # Hessian reads its iterate's and adds m + 2 = 5 hess_h products
    assert vt_shapes and set(vt_shapes) == {(3, 16)}
    assert len(per_gradient) > trace.iteration_counts()[0]
    assert max(per_gradient) <= 2
    assert per_hessian and set(per_hessian) == {(5, 0)}


def test_each_search_trial_evaluates_h_once():
    # St(8, 2), first order: h runs twice at x0 (the region check and the
    # evaluation) and once per search trial, whose evaluation takes the h of
    # its region test
    base = builtin_problem("stiefel", n=8, p=2, seed=3)
    calls = []

    def counted_h(x):
        calls.append(1)
        return base.h(x)

    p = replace(base, h=counted_h)
    trace = gradient_eigenstep(p, p.init_point(3), SolverConfig(eps1=1e-4, beta=5.0))
    assert trace.termination == "converged"
    assert any(r.backtracks for r in trace.records)
    trials = sum(r.backtracks + 1 for r in trace.records if r.kind != "terminal")
    assert len(calls) == 2 + trials


def test_max_iters_termination():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-9, eps2=math.inf, beta=10.0, max_iters=3)
    trace = gradient_eigenstep(p, p.init_point(0), cfg)
    assert trace.termination == "max_iters"
    assert trace.iteration_counts()[0] == 3


def test_backtrack_exhaustion_maps_to_beta_too_small():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, beta=10.0, alpha01=1e6, max_backtracks=0)
    trace = gradient_eigenstep(p, p.init_point(0), cfg)
    assert trace.termination == "beta_too_small"


def test_unreachable_tolerance_ends_as_tolerance_unreachable():
    # eps1 = 1e-300: the run stalls at ||grad g|| ~ 2e-8, where even a step of alpha01
    # had to decrease g = 0.5 by c1 ||grad g||^2 ~ 3e-20, far below the rounding of g
    p = builtin_problem("rayleigh", n=10)
    cfg = SolverConfig(eps1=1e-300)
    trace = gradient_eigenstep(p, p.init_point(0), cfg)
    assert trace.termination == "tolerance_unreachable"
    ev = trace.final_eval
    assert ev.x is trace.final_x and ev.grad_norm > cfg.eps1
    assert cfg.c1 * cfg.alpha01 * ev.grad_norm**2 <= 4.0 * math.ulp(ev.g_val)
    assert issubclass(DecreaseBelowRoundingError, BacktrackFailureError)
    # the same search with a measurable decrease still fails as a backtrack failure
    with pytest.raises(DecreaseBelowRoundingError):
        gradient_backtrack(p, ev, replace(cfg, max_backtracks=0), alpha0=1e-300)
    with pytest.raises(BacktrackFailureError) as exc:
        gradient_backtrack(p, ev, replace(cfg, max_backtracks=0, alpha01=1e30), alpha0=1e-300)
    assert type(exc.value) is BacktrackFailureError


def test_run_trace_keeps_its_last_evaluation_out_of_the_json():
    p = diag_rayleigh()
    trace = gradient_eigenstep(p, p.init_point(0), SolverConfig(eps1=1e-5, beta=10.0))
    assert trace.final_eval.x is trace.final_x
    assert trace.final_eval.g_val == trace.records[-1].g_after
    assert "final_eval" not in trace.as_dict()


@pytest.mark.parametrize("evaluator", ["f", "hess_h"])
def test_non_finite_evaluator_output_raises_evaluation_error(evaluator):
    # a NaN must not read as convergence (hess_h) or as beta_too_small (f)
    p = diag_rayleigh()
    nan = {"f": lambda x: math.nan, "hess_h": lambda x, w, v: np.full(np.shape(v), math.nan)}
    bad = replace(p, **{evaluator: nan[evaluator]})
    with pytest.raises(EvaluationError, match="^%s returned (a )?non-finite" % evaluator):
        gradient_eigenstep(bad, p.init_point(0), SolverConfig(eps1=1e-5, beta=10.0))


def test_rank_deficiency_terminates_cleanly():
    toy = make_rank_crossing_toy()
    cfg = SolverConfig(eps1=1e-6, eps2=math.inf, beta=1.0)
    trace = gradient_eigenstep(toy, toy.init_point(0), cfg)
    assert trace.termination == "rank_deficient"
    assert np.all(np.isfinite(trace.final_x))


# ---------------------------------------------------------------------------
# plateau scheme


def test_plateau_degenerate_matches_plain_solve():
    # beta0 stays above B(x) along the whole run (max observed B is ~1.01)
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-4, eps2=1e-4, beta=20.0)
    solo = gradient_eigenstep(p, p.init_point(1), cfg)
    combo = plateau(p, p.init_point(1), cfg, gamma=2.0, beta0=20.0, lp0=1e9)
    assert len(combo.plateaus) == 1
    assert combo.plateaus[0].stop_reason == "converged"
    assert [r.as_dict() for r in combo.records] == [r.as_dict() for r in solo.records]
    np.testing.assert_array_equal(combo.final_x, solo.final_x)


def test_plateau_estimates_beta_from_tiny_start():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4)
    trace = plateau(p, p.init_point(1), cfg, gamma=2.0, beta0=1e-3, lp0=50)
    assert trace.termination == "converged"
    assert trace.final_certificate.focp_pass
    assert math.isfinite(trace.plateaus[-1].beta)


def test_plateau_budget_growth_replay():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-3, eps2=1e-4, beta=20.0)
    gamma = 2.0
    trace = plateau(p, p.init_point(1), cfg, gamma=gamma, beta0=20.0, lp0=5)
    stages = trace.plateaus
    assert len(stages) >= 2
    assert all(s.stop_reason == "budget" for s in stages[:-1])
    for prev, nxt in zip(stages, stages[1:]):
        assert nxt.lp == gamma**4 * prev.lp
        assert nxt.beta == gamma * prev.beta


def test_plateau_b_trigger_replay():
    p = diag_rayleigh()
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4)
    gamma = 2.0
    trace = plateau(p, p.init_point(1), cfg, gamma=gamma, beta0=1e-3, lp0=50)
    stages = trace.plateaus
    for prev, nxt in zip(stages, stages[1:]):
        if prev.stop_reason == "b_trigger":
            assert nxt.beta == gamma * prev.b_value
            assert nxt.lp == (gamma * prev.b_value / prev.beta) ** 4 * prev.lp
        elif prev.stop_reason in ("budget", "backtrack_failure"):
            assert nxt.beta == gamma * prev.beta
            assert nxt.lp == gamma**4 * prev.lp
    assert any(s.stop_reason == "b_trigger" for s in stages)


@pytest.mark.parametrize("kwargs, what", [
    ({"lp0": math.nan}, "lp0"),
    ({"beta0": math.inf}, "beta0"),
    ({"gamma": math.inf}, "gamma"),
    ({"gamma": math.nan}, "gamma"),
    ({"max_plateaus": -1}, "max_plateaus"),
])
def test_plateau_rejects_non_finite_parameters(kwargs, what):
    p = diag_rayleigh()
    with pytest.raises(ValueError, match=what):
        plateau(p, p.init_point(0), SolverConfig(eps1=1e-4), **kwargs)


def test_plateau_cap_returns_trace():
    # f pays 1e6 ||x - x0|| that grad_f does not show, so every trial from x0
    # raises the penalty and each search fails with the full trial budget
    p = diag_rayleigh()
    x0 = p.init_point(0)
    p = replace(p, f=lambda x, f=p.f: f(x) + 1e6 * np.linalg.norm(x - x0))
    cfg = SolverConfig(eps1=1e-5, eps2=math.inf, beta=1.0)
    trace = plateau(p, x0, cfg, gamma=2.0, beta0=1e9, lp0=10, max_plateaus=3)
    assert trace.termination == "max_plateaus"
    assert [s.stop_reason for s in trace.plateaus] == ["backtrack_failure"] * 3
    assert trace.config.beta == trace.plateaus[-1].beta
    assert [r.kind for r in trace.records] == ["terminal"] * 3


def test_plateau_zero_cap_returns_the_start():
    p = diag_rayleigh()
    x0 = p.init_point(0)
    trace = plateau(p, x0, SolverConfig(eps1=1e-5), beta0=3.0, max_plateaus=0)
    assert trace.termination == "max_plateaus"
    assert trace.plateaus == [] and trace.records == []
    assert trace.final_certificate is None
    assert trace.config.beta == 3.0
    np.testing.assert_array_equal(trace.final_x, x0)


def test_plateau_certifies_only_inside_the_solver(monkeypatch):
    # a plateau run evaluates points only inside the solver's loop and
    # certifies once, at its last point, however many plateaus it runs
    from fletcher_penalty import solver

    inside = [False]
    calls = []

    def spy(name):
        real = getattr(solver, name)

        def wrapped(*args, **kwargs):
            calls.append((name, inside[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, name, wrapped)

    for name in ("evaluate", "penalty_hess", "certify"):
        spy(name)
    real_loop = solver._descend

    def loop(*args, **kwargs):
        inside[0] = True
        try:
            return real_loop(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(solver, "_descend", loop)
    p = builtin_problem("stiefel", n=8, p=2, seed=3)
    trace = plateau(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3),
                    gamma=2.0, beta0=1e-3, lp0=50)
    assert trace.termination == "converged"
    assert len(trace.plateaus) >= 2
    assert [c for c in calls if c[0] == "certify"] == [("certify", False)]
    assert {in_loop for name, in_loop in calls if name != "certify"} == {True}


def test_plateau_evaluates_each_stage_start_once(monkeypatch):
    # each stage starts from the previous stage's last evaluation, re-based at the
    # new beta: every point's Dh and SVD are computed once in the whole run, and a
    # stage boundary costs one f and one hess_h call
    from fletcher_penalty import PenaltyEval, penalty, solver

    calls, jac_points = {}, set()
    base = builtin_problem("stiefel", n=8, p=2, seed=3)

    def counted(name):
        real = getattr(base, name)

        def wrapper(x, *args):
            calls[name] = calls.get(name, 0) + 1
            if name == "jac_h":
                jac_points.add(np.asarray(x).tobytes())
            return real(x, *args)

        return wrapper

    p = replace(base, **{k: counted(k) for k in ("f", "grad_f", "hess_f", "h", "jac_h", "hess_h")})
    svds, thresholds, exact_checks, rebases = [], [], [], []
    real_svd, real_thresholds, real_evaluate = penalty.svd, solver.beta_thresholds, solver.evaluate
    monkeypatch.setattr(penalty, "svd", lambda a: svds.append(a) or real_svd(a))

    def thresholds_spy(*a, below=None):
        th = real_thresholds(*a, below=below)
        if below is None:
            thresholds.append(a)
        elif th is not None:  # a stop check whose bound left the trigger open
            exact_checks.append(th)
        return th

    monkeypatch.setattr(solver, "beta_thresholds", thresholds_spy)

    def evaluate_spy(problem, x, beta, *args, **kwargs):
        if not isinstance(x, PenaltyEval) or x.beta == beta:
            return real_evaluate(problem, x, beta, *args, **kwargs)
        before = dict(calls)
        ev = real_evaluate(problem, x, beta, *args, **kwargs)
        rebases.append({k: n - before.get(k, 0) for k, n in calls.items() if n != before.get(k, 0)})
        return ev

    monkeypatch.setattr(solver, "evaluate", evaluate_spy)
    trace = plateau(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3),
                    gamma=2.0, beta0=1e-3, lp0=50)
    assert trace.termination == "converged" and len(trace.plateaus) >= 2
    assert rebases == [{"f": 1, "hess_h": 1}] * (len(trace.plateaus) - 1)
    # one Dh and one SVD per point; beta_thresholds, and a stop check whose bound
    # cannot rule out a trigger, take one more SVD, of Dlambda
    assert calls["jac_h"] == len(jac_points)
    assert exact_checks
    assert len(svds) == len(jac_points) + len(thresholds) + len(exact_checks)


# St(8, 2) (m = 3) and Rayleigh (m = 1), whose rank-one Dlambda has a Frobenius
# norm equal to its 2-norm: the bound then ties b_max up to rounding
_STOP_CHECK_RUNS = [
    *[pytest.param("stiefel", seed, id="stiefel-%d" % seed) for seed in (1, 3, 5, 8)],
    pytest.param("rayleigh", 1, id="rayleigh-1"),
]


def _stop_check_run(problem_id, seed):
    p = builtin_problem(problem_id, n=8 if problem_id == "stiefel" else 12, seed=seed)
    return p, lambda q: plateau(q, q.init_point(seed), SolverConfig(eps1=1e-4, eps2=1e-3),
                                gamma=2.0, beta0=1e-3, lp0=50)


@pytest.mark.parametrize("problem_id, seed", _STOP_CHECK_RUNS)
def test_plateau_stop_bound_decides_as_the_exact_thresholds(monkeypatch, problem_id, seed):
    # every check the Frobenius bound decides has an exact b_max below beta_l, and
    # the run is the one whose stop check takes the exact thresholds every time
    from fletcher_penalty import solver

    p, run = _stop_check_run(problem_id, seed)
    real_thresholds, ruled_out = solver.beta_thresholds, []

    def check_spy(problem, ev, below=None):
        th = real_thresholds(problem, ev, below=below)
        if below is not None and th is None:
            ruled_out.append((ev, below))
        return th

    monkeypatch.setattr(solver, "beta_thresholds", check_spy)
    trace = run(p)
    assert trace.termination == "converged"
    assert any(s.stop_reason == "b_trigger" for s in trace.plateaus)
    assert ruled_out
    assert all(beta_thresholds(p, ev).b_max < beta for ev, beta in ruled_out)
    monkeypatch.setattr(solver, "beta_thresholds",
                        lambda problem, ev, below=None: real_thresholds(problem, ev))
    assert trace.as_dict() == run(p).as_dict()


@pytest.mark.parametrize("problem_id, seed", _STOP_CHECK_RUNS)
def test_plateau_stop_check_takes_an_svd_only_at_a_trigger(monkeypatch, problem_id, seed):
    # each stop check forms Dlambda with m hess_h products; a check that does not
    # trigger takes no SVD, and a trigger takes one, of that Dlambda
    from fletcher_penalty import dlambda_jacobian, penalty, solver

    base, run = _stop_check_run(problem_id, seed)
    hess_h_calls, svds, checks = [0], [], []

    def hess_h(*a):
        hess_h_calls[0] += 1
        return base.hess_h(*a)

    p = replace(base, hess_h=hess_h)
    real_svd, real_thresholds = penalty.svd, solver.beta_thresholds
    monkeypatch.setattr(penalty, "svd", lambda a: svds.append(a) or real_svd(a))

    def check_spy(problem, ev, below=None):
        calls_before, svds_before = hess_h_calls[0], len(svds)
        th = real_thresholds(problem, ev, below=below)
        if below is not None:  # a stop check, not the final certificate's bounds
            checks.append((ev, below, th, hess_h_calls[0] - calls_before, svds[svds_before:]))
        return th

    monkeypatch.setattr(solver, "beta_thresholds", check_spy)
    trace = run(p)
    triggers = sum(s.stop_reason == "b_trigger" for s in trace.plateaus)
    assert triggers and len(checks) > triggers
    for ev, beta, th, products, taken in checks:
        assert products == p.dim_h
        if th is None:
            assert taken == []
        else:
            assert th.b_max >= beta  # every check the bound leaves open is a trigger here
            assert len(taken) == 1
            np.testing.assert_array_equal(taken[0], dlambda_jacobian(base, ev))
    assert sum(th is not None for _, _, th, _, _ in checks) == triggers


@pytest.mark.parametrize("driver", ["solve", "plateau"])
def test_second_order_run_without_hess_h_fails_before_evaluating(monkeypatch, driver):
    # the certificate needs hess_h; the Problem contract refuses a run without it
    # before the solver evaluates anything
    from fletcher_penalty import solver

    calls = []
    real = solver.evaluate
    monkeypatch.setattr(solver, "evaluate", lambda *a, **k: calls.append(a) or real(*a, **k))
    rayleigh = builtin_problem("rayleigh", n=12)
    cfg = SolverConfig(eps1=1e-4, eps2=1e-3, beta=5.0)
    with pytest.raises(ValueError, match="hess_h"):
        p = replace(rayleigh, hess_h=None)
        if driver == "solve":
            gradient_eigenstep(p, p.init_point(1), cfg)
        else:
            plateau(p, p.init_point(1), cfg, beta0=5.0)
    assert calls == []


@pytest.mark.parametrize("start", ["saddle", 1, 2])
def test_cholesky_convergence_test_keeps_the_records(monkeypatch, start):
    # the Cholesky test decides as an eigh-based one would, and only an eigenstep
    # computes an eigenvector
    from fletcher_penalty import criticality, solver

    p = diag_rayleigh(n=30)
    x0 = np.eye(30)[5] if start == "saddle" else p.init_point(start)
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    with_vector = []
    for module in (solver, criticality):
        def spy(h, vector=True, real=module.sym_eig_min):
            with_vector.append(vector)
            return real(h, vector)

        monkeypatch.setattr(module, "sym_eig_min", spy)
    shipped = gradient_eigenstep(p, x0, cfg)
    eigen = sum(r.kind == "eigen" for r in shipped.records)
    assert with_vector.count(True) == eigen
    if start == "saddle":
        assert eigen >= 1
    monkeypatch.setattr(solver, "min_eig_above",
                        lambda h, floor: bool(np.linalg.eigh(h)[0][0] > floor))
    oracle = gradient_eigenstep(p, x0, cfg)
    assert [r.as_dict() for r in shipped.records] == [r.as_dict() for r in oracle.records]
    assert shipped.termination == oracle.termination == "converged"


@pytest.mark.parametrize("eps2", [math.inf, 1e-3])
def test_converged_point_takes_one_svd(monkeypatch, eps2):
    # the final point's Dh is factorized once; the certificate reuses that SVD
    from fletcher_penalty import penalty

    seen = []
    real_svd = penalty.svd

    def spy_svd(a):
        seen.append(np.array(a, copy=True))
        return real_svd(a)

    monkeypatch.setattr(penalty, "svd", spy_svd)
    p = builtin_problem("stiefel", n=8, p=2, seed=3)
    trace = gradient_eigenstep(p, p.init_point(3), SolverConfig(eps1=1e-4, eps2=eps2, beta=5.0))
    assert trace.termination == "converged"
    jac = p.jac_h(trace.final_x)
    assert sum(1 for a in seen if a.shape == jac.shape and np.array_equal(a, jac)) == 1


@pytest.mark.parametrize("eps2", [math.inf, 1e-3])
@pytest.mark.parametrize("driver", ["solve", "plateau"])
@pytest.mark.parametrize("problem_id", ALL_BUILTIN_IDS)
def test_trace_invariants_across_builtins(problem_id, driver, eps2):
    # the paper's guarantees replayed from the trace: region, decrease, certificate
    # second-order runs start near a maximizer of f, so eigensteps must fire
    rng = np.random.default_rng([7, ALL_BUILTIN_IDS.index(problem_id)])
    cfg = SolverConfig(eps1=1e-4, eps2=eps2, beta=3.0)
    eigensteps = 0
    for _ in range(2):
        seed = int(rng.integers(1000))
        p = builtin_problem(problem_id, n=4, seed=seed)
        x0 = random_point_in_region(p, seed, scale=float(rng.uniform(0.05, 0.5)))
        if math.isfinite(eps2):
            neg = replace(p, f=lambda x, p=p: -p.f(x), grad_f=lambda x, p=p: -p.grad_f(x),
                          hess_f=lambda x, v, p=p: -p.hess_f(x, v))
            x0 = gradient_eigenstep(neg, x0, replace(cfg, eps1=1e-5, eps2=math.inf)).final_x
        if driver == "solve":
            trace = gradient_eigenstep(p, x0, cfg)
        else:
            trace = plateau(p, x0, cfg, gamma=2.0, beta0=1e-2, lp0=20)
        assert trace.termination == "converged"
        assert trace.final_certificate.focp_pass
        assert all(r.h_norm <= p.region.radius for r in trace.records)
        for r in trace.records:
            decrease = r.g_before - r.g_after
            if r.kind == "gradient":
                assert decrease >= cfg.c1 * r.step_len * r.grad_norm**2 * (1 - 1e-12) - 1e-15
            elif r.kind == "eigen":
                eigensteps += 1
                assert r.curvature < -cfg.eps2
                assert decrease >= -cfg.c2 * r.step_len**2 * r.curvature * (1 - 1e-12) - 1e-15
    assert (eigensteps > 0) == math.isfinite(eps2)


# ---------------------------------------------------------------------------
# feasibility restoration


def test_restore_stationary_at_feasible_point():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    x0 = p.init_point(1)
    x, log = restore_feasibility(p, x0, 1e-3, 1.0)
    np.testing.assert_array_equal(x, x0)
    assert len(log) == 1 and log[0][1] <= 1e-16


def test_restore_sphere_closed_form_limit():
    w = np.zeros(4)
    w[0] = 1.0
    p = make_sphere(4, w)
    x0 = 1.2 * w  # ||h|| = 0.44 <= R
    x, log = restore_feasibility(p, x0, 1e-3, 5.0)
    # the stop threshold phi <= 1e-16 pins ||h|| to sqrt(2)*1e-8
    assert np.linalg.norm(p.h(x)) <= math.sqrt(2.0e-16) * (1.0 + 1e-9)
    assert np.linalg.norm(x / np.linalg.norm(x) - w) <= 1e-8


def test_restore_gronwall_decay():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    sigma_lb = p.region.sigma_lb
    x0 = random_point_in_region(p, 5, scale=0.4)
    x, log = restore_feasibility(p, x0, 1e-3, 3.0)
    phi0 = log[0][1]
    for t, phi in log:
        assert phi <= phi0 * math.exp(-2.0 * sigma_lb**2 * t) * 1.05


def test_restore_monotone_log():
    p = builtin_problem("stiefel", n=8, p=2, seed=1)
    x0 = random_point_in_region(p, 3, scale=0.3)
    _, log = restore_feasibility(p, x0, 1e-2, 1.0)
    phis = [phi for _, phi in log]
    assert all(b <= a for a, b in zip(phis, phis[1:]))


def _restore_reference(problem, x, step, t_end):
    """The RK4 loop with h and k1 evaluated afresh at every use; (x, log, trials)."""

    def rhs(y):
        return -(problem.jac_h(y).T @ problem.h(y))

    def phi_at(y):
        hv = problem.h(y)
        return 0.5 * float(hv @ hv)

    phi, t, dt, trials = phi_at(x), 0.0, step, 0
    log = [(0.0, phi)]
    while t < t_end - 1e-15 and phi > 1e-16:
        dt_eff = min(dt, t_end - t)
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt_eff * k1)
        k3 = rhs(x + 0.5 * dt_eff * k2)
        k4 = rhs(x + dt_eff * k3)
        x_new = x + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        phi_new = phi_at(x_new)
        trials += 1
        if not phi_new <= phi:
            dt *= 0.5
            continue
        x, t, phi = x_new, t + dt_eff, phi_new
        log.append((t, phi))
    return x, log, trials


@pytest.mark.parametrize("step", [0.3, 2.0])
def test_restore_evaluates_h_once_per_point_and_k1_once_per_iterate(step):
    # at step 2.0 some RK4 steps overshoot and are rejected; the flow at the
    # unchanged iterate (k1) is kept for the halved retry
    p = builtin_problem("stiefel", n=5, p=2, seed=1)
    x0 = random_point_in_region(p, 3, scale=0.4)
    x_ref, log_ref, trials = _restore_reference(p, x0, step, 3.0)
    calls = {"h": 0, "jac_h": 0}

    def counted(name):
        fn = getattr(p, name)

        def call(y):
            calls[name] += 1
            return fn(y)

        return call

    x, log = restore_feasibility(replace(p, h=counted("h"), jac_h=counted("jac_h")), x0, step, 3.0)
    assert np.array_equal(x, x_ref) and log == log_ref
    steps = len(log) - 1
    assert (trials > steps) == (step == 2.0)
    # h: the region guard and the start, then k2, k3, k4 and the new point per trial
    assert calls["h"] == 2 + 4 * trials
    # jac_h: k1 once per iterate a trial starts from, then k2, k3, k4 per trial
    assert calls["jac_h"] == steps + 3 * trials


def test_restore_rejects_infeasible_start():
    w = np.zeros(4)
    w[0] = 1.0
    p = make_sphere(4, w)
    with pytest.raises(ValueError):
        restore_feasibility(p, 1.5 * w, 1e-3, 1.0)


@pytest.mark.parametrize("step, t_end", [(math.nan, 1.0), (1e-3, math.nan), (math.inf, 1.0),
                                         (1e-3, math.inf)])
def test_restore_rejects_non_finite_step_and_horizon(step, t_end):
    w = np.zeros(4)
    w[0] = 1.0
    p = make_sphere(4, w)
    with pytest.raises(ValueError, match="finite"):
        restore_feasibility(p, 1.1 * w, step, t_end)


def test_restore_rejects_a_step_whose_violation_energy_is_not_finite():
    # a step of 1e30 overflows h; NaN > phi is False, so a NaN phi must not pass as a decrease
    p = builtin_problem("stiefel", n=8, p=2, seed=0)
    x0 = random_point_in_region(p, 0, scale=0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSizeError, match="keeps increasing or is not finite"):
            restore_feasibility(p, x0, 1e30, 1e200)
