"""Acceptance suite: every criterion at its stated tolerance, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
"""

import math

import numpy as np

from fletcher_penalty import (
    SolverConfig,
    audit,
    audit_restore,
    builtin_problem,
    certify,
    check_problem,
    gradient_eigenstep,
    lagrangian_check,
    layered_grad,
    layered_hess,
    make_rayleigh_sphere,
    make_sphere,
    penalty_grad,
    penalty_hess,
    plateau,
    random_point_in_region,
    restore_feasibility,
)

from conftest import kernel_oracle, replay_plateau_rules

SQRT_HALF = math.sqrt(0.5)


def _verdict(num, label, ok, detail=""):
    print("[%s] criterion %d: %s%s" % ("PASS" if ok else "FAIL", num, label, detail))
    assert ok, "criterion %d failed: %s %s" % (num, label, detail)


def _builtins():
    return {
        "sphere": builtin_problem("sphere", n=5),
        "rayleigh": builtin_problem("rayleigh", n=10),
        "stiefel": builtin_problem("stiefel", n=8, p=3, seed=0),
        "product": builtin_problem("product:sphere,sphere", n=3, seed=0),
    }


def _criterion5_trace():
    p = make_rayleigh_sphere(np.diag(np.arange(1.0, 11.0)))
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    return p, cfg, gradient_eigenstep(p, p.init_point(1), cfg)


def test_criterion_1_sphere_counterexample():
    w = np.zeros(5)
    w[0] = 1.0
    p = make_sphere(5, w)
    lq = layered_hess(p, w)
    cert = certify(p, w, 0.5, 0.5, 0.5)
    flags = lagrangian_check(p, w, [0.5], 0.5, 0.5, 0.5)
    ok = (
        cert.eps0_measured <= 1e-12
        and cert.eps1_measured <= 1e-10
        and abs(lq.min_eig - (-1.0)) <= 1e-8
        and flags == (True, False)
        and cert.focp_pass
        and not cert.socp_pass
    )
    _verdict(1, "sphere maximizer separates the two criticality notions", ok)


def test_criterion_2_stiefel_constants():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    rng = np.random.default_rng(123)
    sigma_ok = True
    for seed in range(100):
        x = random_point_in_region(p, seed, scale=0.5)
        assert np.linalg.norm(p.h(x)) <= 0.5
        s_min = np.linalg.svd(p.jac_h(x), compute_uv=False)[-1]
        sigma_ok = sigma_ok and s_min >= 2.0 * SQRT_HALF - 1e-9
    feasible_ok = True
    for seed in range(10):
        s = np.linalg.svd(p.jac_h(p.init_point(seed)), compute_uv=False)
        feasible_ok = feasible_ok and abs(s[-1] - 2.0) <= 1e-9
    taylor_ok = True
    for seed in range(20):
        x = random_point_in_region(p, seed, scale=0.4)
        v = rng.standard_normal(p.dim_x) * rng.uniform(0.05, 0.6)
        rem = np.linalg.norm(p.h(x + v) - p.h(x) - p.jac_h(x) @ v)
        taylor_ok = taylor_ok and rem <= float(v @ v)
    _verdict(2, "orthonormal-frame region constants", sigma_ok and feasible_ok and taylor_ok)


def test_criterion_3_derivative_consistency():
    failing = []
    for name, p in _builtins().items():
        for r in check_problem(p, list(range(10))):
            if not r.passed:
                failing.append((name, r.target, r.max_rel_err))
    _verdict(
        3,
        "derivative checks pass for all builtins",
        not failing,
        detail="" if not failing else " " + str(failing),
    )


def test_criterion_4_feasible_identities():
    beta = 1.0
    grad_ok = True
    hess_ok = True
    for p in _builtins().values():
        for seed in range(20):
            x = p.init_point(seed)
            gg = penalty_grad(p, x, beta)
            rg = layered_grad(p, x)
            grad_ok = grad_ok and np.linalg.norm(gg - rg) <= 1e-9 * (
                1.0 + np.linalg.norm(p.grad_f(x))
            )
        for seed in range(20):
            x = p.init_point(seed)
            hg = penalty_hess(p, x, beta)
            q, reduced, _ = kernel_oracle(p, x)
            hess_ok = hess_ok and np.max(np.abs(q.T @ hg @ q - reduced)) <= 1e-4
            low = np.linalg.eigvalsh(q.T @ hg @ q)[0]
            hess_ok = hess_ok and abs(layered_hess(p, x).min_eig - low) <= 1e-4
    _verdict(4, "penalty matches layered quantities on the feasible set", grad_ok and hess_ok)


def test_criterion_5_rayleigh_solver():
    # a converged run has passed the solver's check of the first-order certificate bounds
    p, cfg, trace = _criterion5_trace()
    ok = (
        trace.termination == "converged"
        and p.f(trace.final_x) <= 0.5 + 1e-3
        and audit(p, trace.as_dict()) == []
    )
    _verdict(5, "solver reaches the Rayleigh global optimum with certificates", ok)


def test_criterion_6_plateau_termination():
    gamma = 2.0
    p1 = make_rayleigh_sphere(np.diag(np.arange(1.0, 11.0)))
    t1 = plateau(
        p1, p1.init_point(1), SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3),
        gamma=gamma, lp0=50, max_plateaus=60,
    )
    p2 = builtin_problem("stiefel", n=8, p=2, seed=3)
    t2 = plateau(
        p2, p2.init_point(3), SolverConfig(eps1=1e-4, eps2=1e-3, beta=1e-3),
        gamma=gamma, lp0=50, max_plateaus=60,
    )
    ok = (
        t1.termination == "converged"
        and t2.termination == "converged"
        and len(t1.plateaus) <= 60
        and len(t2.plateaus) <= 60
        and t1.final_certificate.focp_pass
        and t2.final_certificate.focp_pass
        and replay_plateau_rules(t1.plateaus, gamma)
        and replay_plateau_rules(t2.plateaus, gamma)
    )
    _verdict(6, "plateau scheme terminates and replays its update rules", ok)


def test_criterion_7_gronwall_decay():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    assert p.region.sigma_lb == 2.0 * SQRT_HALF
    ok = True
    for seed in range(5):
        _, log = restore_feasibility(p, random_point_in_region(p, seed, scale=0.4), 1e-3, 3.0)
        ok = ok and audit_restore(p, log) == []
    _verdict(7, "restoration flow obeys the exponential decay envelope", ok)


def test_criterion_8_complexity_trend():
    p = make_rayleigh_sphere(np.diag(np.arange(1.0, 11.0)))
    x0 = p.init_point(1)
    counts = []
    decrease_ok = True
    for eps in (1e-2, 1e-3, 1e-4):
        trace = gradient_eigenstep(p, x0, SolverConfig(eps1=eps, eps2=math.inf, beta=10.0))
        assert trace.termination == "converged"
        counts.append(trace.iteration_counts()[0])
        decrease_ok = decrease_ok and audit(p, trace.as_dict()) == []
    monotone = all(a <= b for a, b in zip(counts, counts[1:]))
    _verdict(
        8,
        "first-order iteration counts scale monotonically",
        monotone and decrease_ok,
        detail=" counts=%s" % (counts,),
    )


def test_criterion_9_determinism():
    _, _, t1 = _criterion5_trace()
    _, _, t2 = _criterion5_trace()
    ok = t1.to_json().encode() == t2.to_json().encode()
    _verdict(9, "identical seeds give byte-identical traces", ok)
