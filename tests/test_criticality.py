"""Layered criticality measures, certificates, and the Lagrangian comparison."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fletcher_penalty import (
    EvaluationError,
    Problem,
    RegionParams,
    SolverConfig,
    builtin_problem,
    certify,
    evaluate,
    gradient_eigenstep,
    kernel_basis,
    lagrangian_check,
    layered_grad,
    layered_hess,
    make_rayleigh_sphere,
    make_sphere,
    multipliers,
    penalty_hess,
    quadratic_cost,
    random_point_in_region,
)
from fletcher_penalty import criticality, linalg, penalty

from conftest import ALL_BUILTIN_IDS, kernel_oracle


@pytest.fixture(scope="module")
def sphere_w():
    w = np.zeros(5)
    w[0] = 1.0
    return make_sphere(5, w), w


def test_layered_grad_vanishes_at_w(sphere_w):
    p, w = sphere_w
    assert np.linalg.norm(layered_grad(p, w)) <= 1e-14


def test_layered_grad_tangent_input(sphere_w):
    p, w = sphere_w
    e2 = np.eye(5)[1]  # orthogonal to w, so grad f = w is already tangent there
    np.testing.assert_allclose(layered_grad(p, e2), w, atol=1e-14)


def test_layered_grad_projector_oracle(builtins):
    for p in builtins.values():
        for seed in range(10):
            x = random_point_in_region(p, seed, scale=0.4)
            rg = layered_grad(p, x)
            q = kernel_basis(p.jac_h(x))
            np.testing.assert_allclose(rg, q @ (q.T @ p.grad_f(x)), atol=1e-10)
            # tangency against every Jacobian row
            assert np.linalg.norm(p.jac_h(x) @ rg) <= 1e-9 * (
                1.0 + np.linalg.norm(p.grad_f(x))
            )


def test_layered_hess_counterexample_eigenvalue(sphere_w):
    # the sphere maximizer has layered Hessian -Id on the tangent space
    p, w = sphere_w
    lq = layered_hess(p, w)
    assert lq.min_eig == pytest.approx(-1.0, abs=1e-12)
    np.testing.assert_allclose(kernel_oracle(p, w)[1], -np.eye(4), atol=1e-12)


def test_layered_hess_rayleigh_gap_oracle():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    p = make_rayleigh_sphere(a)
    w, v = np.linalg.eigh(a)
    for i in (0, 2, 5):
        gaps = np.sort(np.delete(w, i) - w[i])
        reduced = kernel_oracle(p, v[:, i])[1]
        np.testing.assert_allclose(np.linalg.eigvalsh(reduced), gaps, atol=1e-9)
        assert layered_hess(p, v[:, i]).min_eig == pytest.approx(gaps[0], abs=1e-9)


def test_layered_hess_zero_cost(sphere_w):
    from dataclasses import replace

    p, _ = sphere_w
    pz = replace(
        p, f=lambda y: 0.0, grad_f=lambda y: np.zeros(5), hess_f=lambda y, v: np.zeros(np.shape(v))
    )
    x = pz.init_point(1)
    np.testing.assert_allclose(kernel_oracle(pz, x)[1], 0.0, atol=1e-14)
    assert abs(layered_hess(pz, x).min_eig) <= 1e-14


def test_min_eig_invariant_under_basis_rotation(builtins):
    rng = np.random.default_rng(21)
    for p in builtins.values():
        x = random_point_in_region(p, 7, scale=0.4)
        lq = layered_hess(p, x)
        q = kernel_oracle(p, x)[0]
        k = q.shape[1]
        o, _ = np.linalg.qr(rng.standard_normal((k, k)))
        lam, _ = multipliers(p, x)
        eye = np.eye(p.dim_x)
        hess = p.hess_f(x, eye) - p.hess_h(x, lam, eye)
        rotated = (q @ o).T @ hess @ (q @ o)
        assert np.linalg.eigvalsh(rotated)[0] == pytest.approx(lq.min_eig, abs=1e-9)


def test_certificate_curvature_matches_an_eigh_oracle(builtins):
    # the certificate reads eigvalsh of K; the full eigh of the oracle's Q^T M Q agrees with it
    for p in builtins.values():
        for seed in range(5):
            x = random_point_in_region(p, seed, scale=0.4)
            lq = layered_hess(p, x)
            oracle = float(np.linalg.eigh(kernel_oracle(p, x)[1])[0][0])
            assert abs(lq.min_eig - oracle) <= 1e-12
            cert = certify(p, x, 1.0, 1.0, 1.0)
            assert abs(cert.min_eig - oracle) <= 1e-12
            assert abs(cert.eps2_measured - max(0.0, -oracle)) <= 1e-12


def test_certificate_curvature_matches_the_kernel_route(builtins):
    # certify and layered_hess read the least eigenvalue of P M P + c V V^T, the same number
    # bit for bit, and it is the least eigenvalue of the full-SVD oracle's Q^T M Q; also for
    # m = 6 with Dh factored on the Gram route, and for M = 0, where c = 1
    stiefel = builtin_problem("stiefel", n=30, p=3, seed=0)
    sphere = builtins["sphere"]
    zero = replace(sphere, f=lambda y: 0.0, grad_f=lambda y: np.zeros(5),
                   hess_f=lambda y, v: np.zeros(np.shape(v)))
    assert linalg._gram_svd(stiefel.jac_h(stiefel.init_point(0))) is not None
    for p in [*builtins.values(), *map(builtin_problem, ALL_BUILTIN_IDS), stiefel, zero]:
        for seed in range(5):
            x = random_point_in_region(p, seed, scale=0.4)
            got = certify(p, x, 1.0, 1.0, 1.0).min_eig
            assert got == layered_hess(p, x).min_eig
            want = kernel_oracle(p, x)[2]
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
    # there K = V V^T, with eigenvalue 1 on range V and, to rounding, 0 on the kernel
    assert abs(certify(zero, zero.init_point(1), 1.0, 1.0, 1.0).min_eig) <= 1e-15


def test_certify_from_a_kept_hessian_takes_no_svd_and_no_product(monkeypatch):
    # the record penalty_hess returns holds hess f - H(lambda) (lag_hess): its certificate
    # evaluates nothing, and equals the one of the bare record, which forms the matrix itself
    p = builtin_problem("rayleigh", n=12)
    ev = evaluate(p, p.init_point(0), 10.0)
    assert ev.lag_hess is None
    _, kept = penalty._penalty_hess(p, ev, 10.0)
    assert kept.lag_hess.shape == (12, 12) and kept.lag_block is ev.lag_block
    bare = certify(p, ev, 1.0, 1.0, 1.0)

    def called(*args, **kwargs):
        raise AssertionError("called")

    for module, name in [(criticality, "kernel_basis"), (penalty, "svd"), (np.linalg, "svd")]:
        monkeypatch.setattr(module, name, called)
    silent = replace(p, hess_f=called, hess_h=called)
    assert certify(silent, kept, 1.0, 1.0, 1.0) == bare
    # a re-based record keeps lag_hess, which does not depend on beta
    monkeypatch.undo()
    assert evaluate(p, kept, 3.0).lag_hess is kept.lag_hess


def test_symmetrize_is_the_halved_sum_bit_for_bit_in_place():
    rng = np.random.default_rng(31)
    for scale in (1e-300, 1e-100, 1.0, 1e100, 1e300):
        for n in (1, 2, 7, 40):
            a = scale * rng.standard_normal((n, n))
            want = (a + a.T) * 0.5
            assert linalg._symmetrize(a) is a
            assert np.array_equal(a, want) and np.array_equal(a, a.T)
    big = np.diag([1e308, -1.7e308, 3.0])
    big[0, 1] = 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = linalg._symmetrize(big)
    assert np.isfinite(out).all() and np.array_equal(out, out.T)
    assert out[0, 0] == 1e308 and out[0, 1] == 0.85e308


def test_certify_second_order_point():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((7, 7))
    a = 0.5 * (a + a.T)
    p = make_rayleigh_sphere(a)
    v_min = np.linalg.eigh(a)[1][:, 0]
    cert = certify(p, v_min, 1e-8, 1e-8, 1e-8)
    assert cert.focp_pass and cert.socp_pass


def test_certify_counterexample(sphere_w):
    p, w = sphere_w
    cert = certify(p, w, 0.5, 0.5, 0.5)
    assert cert.focp_pass
    assert not cert.socp_pass
    assert cert.eps2_measured == pytest.approx(1.0, abs=1e-12)


def test_certify_infeasible_point_fails(sphere_w):
    p, w = sphere_w
    cert = certify(p, 1.2 * w, 1e-3, 10.0, 10.0)
    assert not cert.focp_pass and not cert.socp_pass


def test_certify_skips_hessian_for_infinite_eps2(sphere_w):
    p, w = sphere_w
    cert = certify(p, w, 0.5, 0.5, math.inf)
    assert cert.eps2_measured is None
    assert cert.focp_pass and cert.socp_pass  # Hessian check vacuous


def test_certify_ties_pass(sphere_w):
    # measured values equal to targets pass (non-strict comparisons)
    p, w = sphere_w
    cert = certify(p, w, 0.5, 0.5, 1.0)
    assert cert.socp_pass  # min_eig = -1 >= -1


def test_lagrangian_check_counterexample(sphere_w):
    p, w = sphere_w
    # with the least-squares multiplier 1/2 the Lagrangian gradient vanishes
    # but the tangent Hessian is -Id
    assert lagrangian_check(p, w, [0.5], 0.5, 0.5, 0.5) == (True, False)


def test_lagrangian_check_matches_certify_focp(sphere_w):
    p, _ = sphere_w
    for seed in range(10):
        x = random_point_in_region(p, seed, scale=0.4)
        lam, _ = multipliers(p, x)
        cert = certify(p, x, 0.3, 0.8, math.inf)
        first, _ = lagrangian_check(p, x, lam, 0.3, 0.8, math.inf)
        assert first == cert.focp_pass


def test_lagrangian_check_strict_minimizer():
    p = make_rayleigh_sphere(np.diag([1.0, 2.0, 3.0]))
    e1 = np.eye(3)[0]
    lam, _ = multipliers(p, e1)
    assert lagrangian_check(p, e1, lam, 1e-10, 1e-10, 1e-10) == (True, True)


def test_lagrangian_check_reads_the_whole_kernel_of_a_rank_deficient_jacobian():
    # Dh's zero row leaves the 2-dimensional kernel span(e_2, e_3), on which hess f has the
    # eigenvalues 3 and -1; the one direction orthogonal to both rows of the thin vt, e_3,
    # reads curvature 1, so a kernel of n - m = 1 column would miss the negative curvature
    jac = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    hess = np.array([[4.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
    cost = quadratic_cost(hess)
    p = Problem(dim_x=3, dim_h=2, region=RegionParams(radius=1.0, sigma_lb=1.0), f=cost.value,
                grad_f=cost.grad, hess_f=cost.hess, h=lambda x: jac @ x,
                jac_h=lambda x: jac.copy(), hess_h=lambda x, w, v: np.zeros(np.shape(v)),
                init_point=lambda seed: np.zeros(3), name="rank-deficient-toy")
    x, lam = np.zeros(3), np.array([0.0, 3.0])  # lam's second entry meets the zero row
    q, _, low = kernel_oracle(p, x, lam)
    assert q.shape == (3, 2) and low == pytest.approx(-1.0, abs=1e-12)
    thin_vt = np.linalg.svd(jac, full_matrices=False)[2]
    assert np.cross(*thin_vt) @ hess @ np.cross(*thin_vt) == 1.0
    for eps2, flags in [(0.5, (True, False)), (2.0, (True, True))]:
        assert lagrangian_check(p, x, lam, 1e-12, 1e-12, eps2) == flags == (True, low >= -eps2)


@pytest.mark.parametrize("evaluator", ["h", "jac_h", "grad_f"])
def test_lagrangian_check_names_a_non_finite_evaluator(evaluator):
    # as certify does: a NaN is an evaluator fault, not a failed check
    p = make_sphere(5, np.eye(1, 5))
    x = p.init_point(0)
    lam, _ = multipliers(p, x)
    real = getattr(p, evaluator)
    bad = replace(p, **{evaluator: lambda y: np.full(np.shape(real(y)), np.nan)})
    with pytest.raises(EvaluationError, match="^%s returned non-finite values" % evaluator):
        lagrangian_check(bad, x, lam, 1.0, 1.0, 1.0)


def test_curvature_near_the_largest_float_reads_its_exact_value():
    # hess f = diag(1.2e308, 1.2e308, 3): the reduced Hessian and K are finite, and so is
    # their symmetrization, which halves before it adds; each reader gets the exact value
    # with no warning (the sum M + M^T would overflow to inf)
    p = make_rayleigh_sphere(np.diag([1.2e308, 1.2e308, 3.0]))
    x = np.eye(3)[2]
    lam, _ = multipliers(p, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certify(p, x, 1.0, 1.0, 1.0).min_eig == 1.2e308
        assert layered_hess(p, x).min_eig == 1.2e308
        assert lagrangian_check(p, x, lam, 1.0, 1.0, 1.0) == (True, True)
        for vector in (True, False):
            val, vec = linalg.sym_eig_min(np.diag([1e308, 1.0, 2.0]), vector=vector)
            assert val == 1.0
            if vector:
                assert np.array_equal(np.abs(vec), np.eye(3)[1])
            else:
                assert vec is None


def test_certificate_scales_a_curvature_whose_row_sum_overflows():
    # hess f = diag(1.7e308, 1e308, 3) with (0, 1) = (1, 0) = 1e308: M's first row sum, and
    # so c = ||M||_inf + 1, pass the largest float; M is scaled by a power of two before K
    # is formed, and the certificate reads the reduced Hessian's least eigenvalue 2.905e307
    a = np.diag([1.7e308, 1e308, 3.0])
    a[0, 1] = a[1, 0] = 1e308
    p = make_rayleigh_sphere(a)
    x = np.eye(3)[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = certify(p, x, 1.0, 1.0, 1.0).min_eig
    want = kernel_oracle(p, x)[2]
    assert want == pytest.approx(2.905e307, rel=1e-3)
    assert got == pytest.approx(want, rel=1e-12)


def test_certify_implies_lagrangian(builtins):
    rng = np.random.default_rng(30)
    for p in builtins.values():
        for seed in range(15):
            x = random_point_in_region(p, seed, scale=0.5)
            eps0, eps1, eps2 = 10.0 ** rng.uniform(-6, 1, size=3)
            cert = certify(p, x, eps0, eps1, eps2)
            lam, _ = multipliers(p, x)
            first, second = lagrangian_check(p, x, lam, eps0, eps1, eps2)
            if cert.focp_pass:
                assert first
            if cert.socp_pass:
                assert second


def test_feasible_points_match_classical_riemannian():
    # on the feasible set the layer is the constraint manifold itself
    a = np.diag(np.arange(1.0, 7.0))
    p = make_rayleigh_sphere(a)
    for seed in range(10):
        x = p.init_point(seed)
        lq = layered_hess(p, x)
        proj = np.eye(6) - np.outer(x, x) / float(x @ x)
        grad_classical = proj @ p.grad_f(x)
        np.testing.assert_allclose(lq.riem_grad, grad_classical, atol=1e-12)
        hess_classical = a - float(x @ (a @ x)) * np.eye(6)
        q, reduced, _ = kernel_oracle(p, x)
        classical = q.T @ hess_classical @ q
        np.testing.assert_allclose(reduced, classical, atol=1e-10)
        assert lq.min_eig == pytest.approx(np.linalg.eigvalsh(classical)[0], abs=1e-10)


def test_second_order_transfer_inequality():
    # near-critical point of the penalty: an almost-positive penalty Hessian
    # bounds the layered Hessian below by -(eps2 + C(x) * eps1), where C(x)
    # combines the two third-derivative operator norms. For the sphere
    # constraint the Jacobian-transpose differential has norm exactly 2; the
    # multiplier-Jacobian differential is estimated by central differences.
    from fletcher_penalty import (
        beta_thresholds,
        dlambda_jacobian,
        penalty_grad,
        penalty_hess,
        sym_eig_min,
    )

    p = make_rayleigh_sphere(np.diag(np.arange(1.0, 7.0)))
    beta = 10.0
    rng = np.random.default_rng(18)
    x = np.eye(6)[1] + 1e-6 * rng.standard_normal(6)  # near a saddle
    th = beta_thresholds(p, x)
    assert beta > max(th.beta2, th.beta3)
    eps1 = np.linalg.norm(penalty_grad(p, x, beta))
    eps2 = max(0.0, -sym_eig_min(penalty_hess(p, x, beta))[0])
    f_h_norm = 2.0
    f_lam_norm = 0.0
    delta = 1e-5
    for _ in range(5):
        v = rng.standard_normal(6)
        v /= np.linalg.norm(v)
        diff = (dlambda_jacobian(p, x + delta * v) - dlambda_jacobian(p, x - delta * v)) / (
            2.0 * delta
        )
        f_lam_norm = max(f_lam_norm, np.linalg.svd(diff, compute_uv=False)[0])
    c_x = 2.0 * f_h_norm / th.sigma_min + f_lam_norm
    lq = layered_hess(p, x)
    assert lq.min_eig >= -(eps2 + c_x * eps1) - 1e-8


def test_certificate_json_shape(sphere_w):
    p, w = sphere_w
    payload = json.loads(json.dumps(certify(p, w, 0.5, 0.5, 0.5).as_dict()))
    assert set(payload) == {
        "eps0_measured",
        "eps1_measured",
        "eps2_measured",
        "targets",
        "focp_pass",
        "socp_pass",
    }
    assert payload["targets"] == [0.5, 0.5, 0.5]
    payload_inf = json.loads(json.dumps(certify(p, w, 0.5, 0.5, math.inf).as_dict()))
    assert payload_inf["targets"][2] is None
    assert payload_inf["eps2_measured"] is None


def _mixed(p, seed):
    """p with its constraints mixed by a seeded orthogonal Q: h -> Q h, Dh -> Q Dh, and
    hess_h(x, w, v) -> hess_h(x, Q^T w, v). The layers, the multipliers' span and every
    curvature are the same; the multipliers become Q lambda."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((p.dim_h, p.dim_h)))
    return q, replace(p, h=lambda x: q @ p.h(x), jac_h=lambda x: q @ p.jac_h(x),
                      hess_h=lambda x, w, v: p.hess_h(x, q.T @ w, v))


@pytest.mark.parametrize("pid, params", [("stiefel", {"n": 8, "p": 3}),
                                         ("product:sphere,stiefel", {})])
def test_curvature_readers_do_not_see_an_orthogonal_mixing_of_the_constraints(pid, params):
    p = builtin_problem(pid, **params)
    q, mixed = _mixed(p, 5)

    def close(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    for seed in range(5):
        x = random_point_in_region(p, seed, scale=0.5)
        assert close(certify(p, x, 1.0, 1.0, 1.0).min_eig, certify(mixed, x, 1.0, 1.0, 1.0).min_eig)
        low = layered_hess(p, x).min_eig
        assert close(low, layered_hess(mixed, x).min_eig)
        for beta in (0.0, 3.0):
            assert close(penalty_hess(p, x, beta), penalty_hess(mixed, x, beta))
        lam, _ = multipliers(p, x)
        for eps in [(10.0, 10.0, 0.5 * abs(low)), (10.0, 10.0, 2.0 * abs(low)), (10.0, 1e-6, 1.0)]:
            assert lagrangian_check(p, x, lam, *eps) == lagrangian_check(mixed, x, q @ lam, *eps)
    # the iterates differ by rounding, so only the outcome is compared
    cfg = SolverConfig(eps1=1e-5, eps2=1e-4, beta=10.0)
    for run in (gradient_eigenstep(p, p.init_point(3), cfg),
                gradient_eigenstep(mixed, p.init_point(3), cfg)):
        assert run.termination == "converged" and run.final_certificate.socp_pass
