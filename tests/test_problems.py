"""Built-in problems: closed forms, region constants, derivative consistency."""

import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from fletcher_penalty import (
    EvaluationError,
    Problem,
    RegionParams,
    builtin_problem,
    linear_cost,
    make_product,
    make_rayleigh_sphere,
    make_sphere,
    make_stiefel,
    quadratic_cost,
    random_point_in_region,
    zero_cost,
)
from fletcher_penalty.derivative_check import (
    SECOND_ORDER_STEP,
    fd_jacobian,
    relative_error,
)
from fletcher_penalty.problems import MAX_DENSE_N, _range_or_list

from conftest import ALL_BUILTIN_IDS, reference_stiefel

SQRT_HALF = np.sqrt(0.5)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_sphere_feasible_value():
    w = unit([1.0, 2.0, 2.0])
    p = make_sphere(3, w)
    np.testing.assert_allclose(p.h(w), [0.0], atol=1e-15)


def test_sphere_jacobian_closed_form():
    p = make_sphere(3, np.array([0.0, 1.0, 0.0]))
    e1 = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(p.jac_h(e1), [[2.0, 0.0, 0.0]], atol=0)


def test_sphere_sigma_bound_in_region():
    # sigma_min(Dh) >= 2*sqrt(1-R) over the region, specialized to one column.
    p = make_sphere(6, unit(np.arange(1.0, 7.0)))
    for seed in range(100):
        x = random_point_in_region(p, seed, scale=0.6)
        s = np.linalg.svd(p.jac_h(x), compute_uv=False)
        assert s[-1] >= 2.0 * SQRT_HALF - 1e-9


def test_sphere_rejects_bad_args():
    with pytest.raises(ValueError):
        make_sphere(3, np.array([1.0, 1.0, 0.0]))  # not unit
    with pytest.raises(ValueError):
        make_sphere(1, np.array([1.0]))


def test_rayleigh_closed_forms():
    p = make_rayleigh_sphere(np.diag([1.0, 2.0, 3.0]))
    assert p.f(np.array([1.0, 0.0, 0.0])) == pytest.approx(0.5, abs=0)
    np.testing.assert_allclose(p.grad_f(np.array([0.0, 1.0, 0.0])), [0.0, 2.0, 0.0], atol=0)


def test_rayleigh_minimizer_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    p = make_rayleigh_sphere(a)
    w, v = np.linalg.eigh(a)
    assert p.f(v[:, 0]) == pytest.approx(0.5 * w[0], rel=1e-12)


def test_quadratic_cost_symmetrizes_without_overflow():
    # (a + a^T) / 2 is taken as a/2 + a^T/2: bit for bit the same in the normal range,
    # and a matrix with entries near the largest float builds with no overflow warning
    a = np.random.default_rng(8).standard_normal((7, 7))
    np.testing.assert_array_equal(quadratic_cost(a).hess(None, np.eye(7)), 0.5 * (a + a.T))
    big = np.diag([1e308, 1e308, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = make_rayleigh_sphere(big)
    np.testing.assert_array_equal(p.hess_f(np.zeros(3), np.eye(3)), big)


def test_rayleigh_rejects_asymmetric():
    a = np.eye(3)
    a[0, 1] = 1e-9
    with pytest.raises(ValueError):
        make_rayleigh_sphere(a)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rayleigh_rejects_a_non_finite_matrix(bad):
    # a NaN passes the symmetry test (nan > 1e-12 is False), so finiteness is its own check
    a = np.eye(3)
    a[1, 1] = bad
    with pytest.raises(ValueError, match="matrix must be finite"):
        make_rayleigh_sphere(a)


def test_stiefel_feasible_h_zero():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    x = p.init_point(5)
    assert p.h(x).shape == (6,)
    assert np.linalg.norm(p.h(x)) <= 1e-13


def test_stiefel_sigma_exactly_two_at_feasible():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    for seed in range(5):
        s = np.linalg.svd(p.jac_h(p.init_point(seed)), compute_uv=False)
        np.testing.assert_allclose(s, 2.0, atol=1e-9)


def test_stiefel_sigma_lower_bound_in_region():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    for seed in range(100):
        x = random_point_in_region(p, seed, scale=0.5)
        assert np.linalg.norm(p.h(x)) <= 0.5
        s = np.linalg.svd(p.jac_h(x), compute_uv=False)
        assert s[-1] >= 2.0 * SQRT_HALF - 1e-9


@pytest.mark.parametrize("n, p", [(8, 3), (5, 2), (30, 3), (8, 2), (4, 1), (6, 6)])
def test_stiefel_evaluators_match_the_basis_form_bit_for_bit(n, p):
    # the factor 2 folded into the basis is a power-of-two scale, so h, jac_h and hess_h
    # give the bits of 2 (X B_k) and 2 S(w) v, on and off the manifold
    prob = builtin_problem("stiefel", n=n, p=p, seed=0)
    h, jac, hess = reference_stiefel(n, p)
    rng = np.random.default_rng(100 * n + p)
    for seed in range(50):
        x = prob.init_point(seed) + rng.uniform(0.0, 2.0) * rng.standard_normal(n * p)
        assert prob.h(x).tobytes() == h(x).tobytes()
        assert prob.jac_h(x).tobytes() == jac(x).tobytes()
        w = rng.standard_normal(prob.dim_h)
        for v in (rng.standard_normal(n * p), rng.standard_normal((n * p, 3)), np.eye(n * p)):
            assert prob.hess_h(x, w, v).tobytes() == hess(x, w, v).tobytes()


def test_random_point_reads_h_at_the_start_before_probing():
    # a NaN h at the start, read once no probe lands, is an h fault, not a perturbation
    # that never reaches the region
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    with pytest.raises(EvaluationError, match="^h returned non-finite values"):
        random_point_in_region(replace(p, h=lambda x: np.full(p.dim_h, np.nan)), 3, scale=0.3)
    # a probe whose h overflows (here every probe 0.1 or more off the start) lies outside,
    # and the perturbation is halved
    x0 = p.init_point(3)
    far = replace(p, h=lambda x: p.h(x) if np.linalg.norm(x - x0) < 0.1 else np.full(p.dim_h, np.inf))
    assert 0.0 < np.linalg.norm(random_point_in_region(far, 3, scale=0.3) - x0) < 0.1


def test_random_point_at_scale_zero_reads_h_once():
    # the probe at scale 0 is the start itself, and it lands: no second read of h there
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    calls = []
    counted = replace(p, h=lambda x: calls.append(1) or p.h(x))
    np.testing.assert_array_equal(random_point_in_region(counted, 3, scale=0.0), p.init_point(3))
    assert len(calls) == 1


def test_stiefel_taylor_remainder_constant_one():
    p = builtin_problem("stiefel", n=8, p=3, seed=0)
    rng = np.random.default_rng(17)
    for seed in range(20):
        x = random_point_in_region(p, seed, scale=0.4)
        v = rng.standard_normal(p.dim_x) * rng.uniform(0.01, 0.5)
        remainder = p.h(x + v) - p.h(x) - p.jac_h(x) @ v
        assert np.linalg.norm(remainder) <= float(v @ v)


def test_stiefel_rejects_bad_radius():
    with pytest.raises(ValueError):
        make_stiefel(4, 2, zero_cost(8), radius=1.0)


def test_stiefel_rejects_square_scalar():
    # p = n = 1 collapses to m = dim, which full row rank forbids
    with pytest.raises(ValueError):
        make_stiefel(1, 1, zero_cost(1))


def test_region_params_are_the_radius_and_the_sigma_bound():
    assert [f.name for f in fields(RegionParams)] == ["radius", "sigma_lb"]
    region = RegionParams(radius=0.5, sigma_lb=1.0)
    assert (region.radius, region.sigma_lb) == (0.5, 1.0)
    with pytest.raises(TypeError):
        RegionParams(radius=0.5, sigma_lb=1.0, c_h=1.0)


def test_random_point_in_region_takes_its_scale_with_no_default():
    # the perturbation's one default is restore's --perturb
    with pytest.raises(TypeError):
        random_point_in_region(builtin_problem("sphere"), 0)


def test_product_region_constants():
    w = np.array([1.0, 0.0, 0.0])
    blocks = [make_sphere(3, w), make_sphere(3, w)]
    p = make_product(blocks, zero_cost(6))
    assert p.region.radius == 0.5
    assert p.region.sigma_lb == pytest.approx(2.0 * SQRT_HALF, abs=0)


def test_product_single_block_identity():
    w = np.array([1.0, 0.0, 0.0])
    p = make_product([make_sphere(3, w)], zero_cost(3))
    assert p.region.radius == 0.5
    assert p.region.sigma_lb == pytest.approx(2.0 * SQRT_HALF, abs=0)


def test_product_blockdiag_sigma_oracle():
    w = np.array([1.0, 0.0, 0.0])
    blocks = [make_sphere(3, w), make_sphere(3, w)]
    p = make_product(blocks, linear_cost(np.ones(6)))
    for seed in range(20):
        x = random_point_in_region(p, seed, scale=0.4)
        s_full = np.linalg.svd(p.jac_h(x), compute_uv=False)[-1]
        s_blocks = min(
            np.linalg.svd(b.jac_h(xi), compute_uv=False)[-1]
            for b, xi in zip(blocks, (x[:3], x[3:]))
        )
        assert abs(s_full - s_blocks) <= 1e-10


def test_product_sigma_bound_matches_min_rule(product_spheres):
    p = product_spheres
    for seed in range(50):
        x = random_point_in_region(p, seed, scale=0.4)
        s = np.linalg.svd(p.jac_h(x), compute_uv=False)
        assert s[-1] >= p.region.sigma_lb - 1e-9


def test_a_problem_without_hess_h_is_rejected_at_construction():
    # constraint Hessians are part of the contract: the multiplier Jacobian needs them
    n = 3
    fields = dict(
        dim_x=n, dim_h=1, region=RegionParams(radius=0.5, sigma_lb=1.0),
        f=lambda x: float(x[0]), grad_f=lambda x: np.eye(1, n)[0],
        hess_f=lambda x, v: np.zeros(np.shape(v)), h=lambda x: np.array([x @ x - 1.0]),
        jac_h=lambda x: 2.0 * x.reshape(1, n), init_point=lambda seed: np.eye(1, n)[0],
    )
    with pytest.raises(ValueError, match="hess_h"):
        Problem(**fields, hess_h=None)
    Problem(**fields, hess_h=lambda x, w, v: 2.0 * w[0] * v)
    for problem_id in ALL_BUILTIN_IDS:
        with pytest.raises(ValueError, match="hess_h"):
            replace(builtin_problem(problem_id), hess_h=None)


def test_init_point_lands_in_region(builtins):
    for p in builtins.values():
        for seed in range(30):
            x0 = p.init_point(seed)
            assert np.linalg.norm(p.h(x0)) <= p.region.radius


def test_derivative_consistency_all_builtins(builtins):
    # jac_h vs h at 1e-6, hess_f vs grad_f and hess_h vs jac_h rows at 1e-5
    # (dense Hessians are the products with the identity)
    for p in builtins.values():
        eye = np.eye(p.dim_x)
        for seed in range(100):
            x = random_point_in_region(p, seed, scale=0.4)
            assert relative_error(p.jac_h(x), fd_jacobian(p.h, x)) <= 1e-6
            assert (
                relative_error(p.hess_f(x, eye), fd_jacobian(p.grad_f, x, SECOND_ORDER_STEP))
                <= 1e-5
            )
            for i, e in enumerate(np.eye(p.dim_h)):
                fd = fd_jacobian(lambda y, i=i: p.jac_h(y)[i], x, SECOND_ORDER_STEP)
                assert relative_error(p.hess_h(x, e, eye), fd) <= 1e-5


@pytest.mark.parametrize("problem_id", ALL_BUILTIN_IDS)
def test_evaluators_hand_out_fresh_arrays(problem_id):
    # writing into a returned array must not change the next call's result
    p = builtin_problem(problem_id, n=5, seed=1)
    x = random_point_in_region(p, 3, scale=0.3)
    w = np.arange(1.0, p.dim_h + 1.0)
    v = np.linspace(-1.0, 2.0, p.dim_x)
    calls = {
        "h": lambda: p.h(x),
        "grad_f": lambda: p.grad_f(x),
        "hess_f": lambda: p.hess_f(x, v),
        "jac_h": lambda: p.jac_h(x),
        "hess_h": lambda: p.hess_h(x, w, v),
    }
    for name, call in calls.items():
        first = call()
        expected = first.copy()
        first[...] = 12345.0
        np.testing.assert_array_equal(call(), expected, err_msg=name)
    # nor may a product write into, or hand back, the block it multiplies
    v_before = v.copy()
    assert not np.shares_memory(p.hess_h(x, w, v), v)
    assert not np.shares_memory(p.hess_f(x, v), v)
    np.testing.assert_array_equal(v, v_before)


def test_weighted_constraint_hessian_matches_fd(builtins):
    # hess_h(x, w) = sum_i w_i hess h_i(x), each term from central differences of a Jacobian row
    rng = np.random.default_rng(41)
    for p in builtins.values():
        for seed in range(5):
            x = random_point_in_region(p, seed, scale=0.4)
            w = rng.standard_normal(p.dim_h)
            fd = sum(
                wi * fd_jacobian(lambda y, i=i: p.jac_h(y)[i], x, SECOND_ORDER_STEP)
                for i, wi in enumerate(w)
            )
            assert relative_error(p.hess_h(x, w, np.eye(p.dim_x)), fd) <= 1e-5


@pytest.mark.parametrize("problem_id", ALL_BUILTIN_IDS)
@pytest.mark.parametrize("cols", [None, 3])
def test_hessian_products_match_dense_oracle_and_fd(problem_id, cols):
    # hess_h(x, w, v) and hess_f(x, v) for a vector and for an n-by-3 block:
    # against the dense product with the identity, and against central
    # differences of the Jacobian rows (sum_i w_i FD(jac row i)) and of grad f
    p = builtin_problem(problem_id, n=5, seed=1)
    rng = np.random.default_rng([17, ALL_BUILTIN_IDS.index(problem_id)])
    eye = np.eye(p.dim_x)
    for seed in range(3):
        x = random_point_in_region(p, seed, scale=0.4)
        w = rng.standard_normal(p.dim_h)
        v = rng.standard_normal(p.dim_x if cols is None else (p.dim_x, cols))
        hv, fv = p.hess_h(x, w, v), p.hess_f(x, v)
        assert hv.shape == fv.shape == v.shape
        for prod, dense in ((hv, p.hess_h(x, w, eye)), (fv, p.hess_f(x, eye))):
            np.testing.assert_allclose(prod, dense @ v, rtol=0,
                                       atol=1e-13 * (1.0 + np.linalg.norm(dense @ v)))
        fd_h = sum(
            wi * fd_jacobian(lambda y, i=i: p.jac_h(y)[i], x, SECOND_ORDER_STEP)
            for i, wi in enumerate(w)
        )
        assert relative_error(hv, fd_h @ v) <= 1e-5
        assert relative_error(fv, fd_jacobian(p.grad_f, x, SECOND_ORDER_STEP) @ v) <= 1e-5


def test_stiefel_weighted_hessian_equals_kron_form():
    # the product with the identity reproduces 2 kron(I_n, sum_k w_k B_k); only
    # the summation order of S(w) may differ, hence a few ulps of tolerance
    from fletcher_penalty.problems import _sym_basis

    n, p_ = 7, 3
    prob = make_stiefel(n, p_, zero_cost(n * p_))
    w = np.random.default_rng(8).standard_normal(prob.dim_h)
    s = np.einsum("k,kij->ij", w, _sym_basis(p_))
    np.testing.assert_allclose(
        prob.hess_h(prob.init_point(0), w, np.eye(n * p_)), 2.0 * np.kron(np.eye(n), s),
        rtol=0, atol=1e-14,
    )


@pytest.mark.parametrize("n, p_", [(5, 1), (8, 2), (8, 3), (30, 3), (4, 4)])
def test_stiefel_h_and_jacobian_equal_the_einsum_formulas(n, p_):
    # h and Dh are matrix products over the symmetric basis; they must equal,
    # bit for bit, the index sums they replaced, kept here as the oracle
    from fletcher_penalty.problems import _sym_basis

    basis = _sym_basis(p_)
    m = basis.shape[0]
    prob = make_stiefel(n, p_, zero_cost(n * p_))
    rng = np.random.default_rng([29, n, p_])
    points = [prob.init_point(s) for s in range(5)]
    points += [scale * rng.standard_normal(n * p_)
               for scale in (1e-3, 0.3, 1.0, 1e3) for _ in range(50)]
    for x in points:
        xm = x.reshape(n, p_)
        h_ref = np.einsum("kij,ij->k", basis, xm.T @ xm - np.eye(p_))
        jac_ref = 2.0 * np.einsum("ai,kij->kaj", xm, basis).reshape(m, n * p_)
        assert np.array_equal(prob.h(x), h_ref)
        assert np.array_equal(prob.jac_h(x), jac_ref)


@pytest.mark.parametrize("problem_id", ALL_BUILTIN_IDS)
def test_weighted_constraint_hessian_rejects_bad_weights(problem_id):
    # an index in place of a weight vector must fail loudly, not pick a Hessian
    p = builtin_problem(problem_id, n=5, seed=1)
    x = p.init_point(0)
    for bad in (0, np.ones(p.dim_h + 1), np.ones((p.dim_h, 1))):
        with pytest.raises(ValueError, match="weights"):
            p.hess_h(x, bad, np.ones(p.dim_x))


def test_registry_ids():
    assert builtin_problem("sphere").name == "sphere"
    assert builtin_problem("rayleigh", diag="1..4").dim_x == 4
    assert builtin_problem("stiefel", n=6, p=2).dim_h == 3
    assert builtin_problem("product:sphere,sphere").dim_h == 2
    for problem_id, message in [
        ("nope", "unknown problem id 'nope'"),
        ("product:", "unknown product block id ''"),
        ("product:sphere,,sphere", "unknown product block id ''"),
        ("product:sphere,cube", "unknown product block id 'cube'"),
    ]:
        with pytest.raises(ValueError) as info:
            builtin_problem(problem_id)
        assert str(info.value) == message
    # a descending range is empty: it is named, not read as a one-dimensional sphere
    with pytest.raises(ValueError) as info:
        builtin_problem("rayleigh", diag="5..1")
    assert str(info.value) == "diag range '5..1' is empty: it needs start <= end"


def test_diag_spec_is_capped_at_the_dense_matrix_size():
    # a range holds floor(end - start) + 1 entries; only the diagonal is built here
    assert MAX_DENSE_N == 10_000
    for spec in ("1..10000", "0.5..9999.5", "1..10000.5", "0.5..10000.4",
                 ",".join(["1"] * MAX_DENSE_N)):
        assert _range_or_list(spec).size == MAX_DENSE_N
    for spec in ("0.5..10000.5", "1..10001", ",".join(["1"] * (MAX_DENSE_N + 1))):
        with pytest.raises(ValueError, match="holds more than 10000 entries"):
            _range_or_list(spec)


def test_diag_range_ends_at_the_last_entry_within_its_end():
    # start, start + 1, ... up to the last start + k <= end: a fractional span does
    # not round the end up to an entry past it
    assert _range_or_list("1..2.5").tolist() == [1.0, 2.0]
    assert _range_or_list("0..0.7").tolist() == [0.0]
    assert _range_or_list("-2.5..1").tolist() == [-2.5, -1.5, -0.5, 0.5]
    assert _range_or_list("1..4").tolist() == [1.0, 2.0, 3.0, 4.0]
    assert _range_or_list("3..3").tolist() == [3.0]
    assert builtin_problem("rayleigh", diag="1..2.5").dim_x == 2


@pytest.mark.parametrize("problem_id, params", [
    ("sphere", {"p": 3}),
    ("rayleigh", {"p": 2}),
    ("product:sphere,sphere", {"p": 2}),
    ("sphere", {"diag": "1..3"}),
    ("stiefel", {"matrix": np.eye(3)}),
    ("product:sphere,stiefel", {"diag": "1..3"}),
    ("rayleigh", {"n": 5, "diag": "1..3"}),
    ("rayleigh", {"diag": "1..3", "matrix": np.eye(3)}),
])
def test_registry_rejects_a_parameter_the_id_does_not_use(problem_id, params):
    with pytest.raises(ValueError):
        builtin_problem(problem_id, **params)


def test_registry_p_defaults_to_two_wherever_a_stiefel_block_takes_it():
    assert builtin_problem("stiefel", n=6).dim_x == 12
    assert builtin_problem("product:sphere,stiefel", n=4, p=3).dim_x == 4 + 12


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -0.2])
def test_random_point_rejects_a_scale_that_is_negative_or_not_finite(scale):
    p = builtin_problem("stiefel", n=3, p=2)
    with pytest.raises(ValueError, match="scale"):
        random_point_in_region(p, 0, scale=scale)


def test_random_point_rejects_an_initial_point_outside_the_region():
    # ||h|| = 3 at the start, against R = 0.5: no halving reaches the region
    p = replace(builtin_problem("sphere", n=3), init_point=lambda seed: np.array([2.0, 0.0, 0.0]))
    for scale in (0.0, 0.4):
        with pytest.raises(ValueError, match="reaches the region"):
            random_point_in_region(p, 0, scale=scale)
    # at scale 0 every probe is the start: one probe and the read of h at the start
    calls = []
    counted = replace(p, h=lambda x: calls.append(1) or p.h(x))
    with pytest.raises(ValueError, match="reaches the region"):
        random_point_in_region(counted, 0, scale=0.0)
    assert len(calls) <= 2


def test_random_point_at_scale_zero_is_the_initial_point():
    for problem_id in ALL_BUILTIN_IDS:
        p = builtin_problem(problem_id, n=5, seed=1)
        for seed in range(20):
            x = random_point_in_region(p, seed, scale=0.0)
            assert x.tobytes() == p.init_point(seed).tobytes()
