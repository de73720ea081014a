"""Contracts of the dense linear-algebra layer."""

import warnings

import numpy as np
import pytest

from fletcher_penalty import kernel_basis, linalg, svd, sym_eig_min
from fletcher_penalty.linalg import GRAM_CUTOFF, GRAM_MIN_COLS, default_rank_tol, vector_norm

# sigma_min / sigma_max at the Gram route's cutoff
GRAM_RATIO = np.sqrt(GRAM_CUTOFF)


def with_singular_values(s, n, seed):
    """A len(s)-by-n matrix with singular values s and random singular vectors."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
    v, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    return (u * np.asarray(s, dtype=float)) @ v.T


def svd_route(monkeypatch, a):
    """svd(a) and the route it took: "lapack" when it called LAPACK's SVD, else "gram"."""
    lapack_calls = []
    real = linalg._lapack_svd
    monkeypatch.setattr(linalg, "_lapack_svd",
                        lambda *args, **kwargs: lapack_calls.append(1) or real(*args, **kwargs))
    res = svd(a)
    monkeypatch.setattr(linalg, "_lapack_svd", real)
    return res, "lapack" if lapack_calls else "gram"


def assert_svd_contract(a, res):
    k = min(a.shape)
    c = np.abs(a).max()  # norms taken of a / c, which cannot overflow
    err = np.linalg.norm((a - res.u @ np.diag(res.s) @ res.vt) / c)
    assert err <= 1e-10 * (1.0 / c + np.linalg.norm(a / c))
    assert np.all(np.diff(res.s) <= 0)
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(k), rtol=0, atol=1e-12)
    np.testing.assert_allclose(res.vt @ res.vt.T, np.eye(k), rtol=0, atol=1e-12)


def test_svd_identity():
    res = svd(np.eye(3))
    np.testing.assert_allclose(res.s, [1.0, 1.0, 1.0], atol=0)


def test_svd_diagonal():
    res = svd(np.diag([3.0, 0.0]))
    np.testing.assert_allclose(res.s, [3.0, 0.0], atol=0)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(7)
    for shape in ((5, 3), (3, 5)):
        a = rng.standard_normal(shape)
        res = svd(a)
        assert res.u.shape == (shape[0], 3) and res.vt.shape == (3, shape[1])
        err = np.linalg.norm(a - res.u @ np.diag(res.s) @ res.vt)
        assert err <= 1e-10 * (1.0 + np.linalg.norm(a))
        assert np.all(np.diff(res.s) <= 0)
        np.testing.assert_allclose(res.u.T @ res.u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(res.vt @ res.vt.T, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 4)])
def test_svd_takes_one_matrix(shape):
    with pytest.raises(ValueError, match="expected a 2-D array"):
        svd(np.ones(shape))


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


# Each wide case: (singular values, n, the route svd must take).
SVD_ROUTE_CASES = {
    "random": ([3.0, 2.2, 1.7, 1.1, 0.9, 0.4], 90, "gram"),
    "clustered": ([1.0 + 1e-9, 1.0, 1.0, 1.0 - 1e-9, 0.5, 0.5], 90, "gram"),
    "equal": ([2.0] * 4, GRAM_MIN_COLS, "gram"),
    "square": (np.linspace(2.0, 1.0, GRAM_MIN_COLS), GRAM_MIN_COLS, "gram"),
    "one row": ([7.5], 120, "gram"),
    "just above the cutoff": ([1.0, 0.6, GRAM_RATIO * (1 + 1e-3)], 70, "gram"),
    "just below the cutoff": ([1.0, 0.6, GRAM_RATIO * (1 - 1e-3)], 70, "lapack"),
    "narrow": ([3.0, 2.0, 1.0], GRAM_MIN_COLS - 1, "lapack"),
    "ill conditioned": ([1.0, 1e-3, 1e-9], 70, "lapack"),
    "rank deficient": ([1.0, 0.5, 0.0], 70, "lapack"),
    "huge": ([3e200, 2e200], 70, "lapack"),  # A A^T overflows
    # ||A||_F^2 = 1.36 GRAM_SCREEN: A A^T is finite, but only the screen bounds it
    "screened": ([1e150, 6e149], 70, "lapack"),
    "below the screen": ([6e149, 4e149], 70, "gram"),  # ||A||_F^2 = 0.52 GRAM_SCREEN
    "tiny": ([3e-160, 2e-160], 70, "lapack"),  # A A^T is subnormal
}


@pytest.mark.parametrize("case", sorted(SVD_ROUTE_CASES))
def test_svd_routes_keep_the_contract(monkeypatch, case):
    s_true, n, route = SVD_ROUTE_CASES[case]
    for seed in range(5):
        a = with_singular_values(s_true, n, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or underflow warning on any route
            res, taken = svd_route(monkeypatch, a)
        assert taken == route
        assert_svd_contract(a, res)
        s_ref = np.linalg.svd(a, full_matrices=False)[1]
        if route == "gram":
            np.testing.assert_allclose(res.s, s_ref, rtol=1e-12, atol=0)
        else:
            np.testing.assert_array_equal(res.s, s_ref)


def test_svd_gram_route_across_random_wide_matrices(monkeypatch):
    # Gaussian rows are well conditioned when m << n; 6-by-90 is the Dh of St(30, 3)
    rng = np.random.default_rng(3)
    for m, n in ((1, 64), (2, 100), (3, 120), (6, 90)):
        for _ in range(10):
            a = rng.standard_normal((m, n))
            res, taken = svd_route(monkeypatch, a)
            assert taken == "gram"
            assert_svd_contract(a, res)
            np.testing.assert_allclose(res.s, np.linalg.svd(a, compute_uv=False),
                                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svd_rejects_nonfinite_on_the_gram_side(monkeypatch, bad):
    # a well-conditioned wide matrix but for one entry: ValueError and no RuntimeWarning,
    # and no eigensolve of a non-finite Gram matrix on the way
    a = with_singular_values([2.0, 1.0], GRAM_MIN_COLS, 0)
    a[1, 4] = bad
    eigh = np.linalg.eigh

    def finite_eigh(g):
        assert np.isfinite(g).all(), "eigh of a non-finite Gram matrix"
        return eigh(g)

    monkeypatch.setattr(np.linalg, "eigh", finite_eigh)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            svd(a)


def test_vector_norm_equals_numpy_norm_bitwise():
    rng = np.random.default_rng(12)
    for size in (1, 2, 3, 6, 30, 90, 257):
        for scale in (1e-200, 1e-8, 1.0, 1e8, 1e150):
            v = scale * rng.standard_normal(size)
            assert vector_norm(v) == float(np.linalg.norm(v))
    assert vector_norm(np.zeros(4)) == 0.0


def test_sym_eig_min_diagonal():
    val, vec = sym_eig_min(np.diag([-1.0, 2.0, 5.0]))
    assert val == pytest.approx(-1.0, abs=0)
    np.testing.assert_allclose(np.abs(vec), [1.0, 0.0, 0.0], atol=1e-14)


def test_sym_eig_min_identity():
    val, vec = sym_eig_min(np.eye(3))
    assert val == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def test_sym_eig_min_full_spectrum_oracle():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    val, vec = sym_eig_min(a)
    w = np.linalg.eigvalsh(a)
    assert abs(val - w[0]) <= 1e-10
    # residual contract
    assert np.linalg.norm(a @ vec - val * vec) <= 1e-9 * (1.0 + np.linalg.norm(a))
    # without a vector the value is eigvalsh's own
    assert sym_eig_min(a, vector=False) == (float(w[0]), None)


def test_sym_eig_min_symmetrizes():
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    val, _ = sym_eig_min(a)
    assert val == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [5, 30, 120])
def test_min_eig_above_agrees_with_eigh_at_the_tie(n):
    # lambda_min(h) = -eps2 (1 +- 1e-3): the Cholesky test must fall on eigh's side
    eps2 = 1e-4
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = rng.standard_normal((n, n))
        a = 0.5 * (a + a.T)
        for side in (1.0 + 1e-3, 1.0 - 1e-3):
            h = a - (np.linalg.eigvalsh(a)[0] + side * eps2) * np.eye(n)
            before = h.copy()
            above = np.linalg.eigh(h)[0][0] > -eps2
            assert above == (side < 1.0)
            assert linalg.min_eig_above(h, -eps2) == above
            assert np.array_equal(h, before)


def test_kernel_basis_single_row():
    q = kernel_basis(np.array([[1.0, 0.0, 0.0]]))
    assert q.shape == (3, 2)
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)
    assert np.linalg.norm(q[0]) <= 1e-12


def test_kernel_basis_sphere_tangent():
    rng = np.random.default_rng(1)
    w = rng.standard_normal(6)
    w /= np.linalg.norm(w)
    q = kernel_basis(2.0 * w.reshape(1, 6))
    assert q.shape == (6, 5)
    assert np.linalg.norm(q.T @ w) <= 1e-12


def test_kernel_basis_random_full_rank():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((3, 7))
    q = kernel_basis(a)
    assert q.shape == (7, 4)
    assert np.linalg.norm(a @ q) <= 1e-10
    np.testing.assert_allclose(q.T @ q, np.eye(4), atol=1e-12)


def test_kernel_basis_orthogonality_bound():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = rng.standard_normal((4, 9))
        tol = default_rank_tol(4, 9)
        q = kernel_basis(a)
        s1 = np.linalg.svd(a, compute_uv=False)[0]
        assert np.linalg.norm(a @ q) <= tol * s1 * np.sqrt(q.shape[1])
        np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)


def test_kernel_basis_rejects_tall():
    with pytest.raises(ValueError):
        kernel_basis(np.zeros((4, 2)))


def test_kernel_basis_zero_matrix_full_kernel():
    q = kernel_basis(np.zeros((2, 4)))
    assert q.shape == (4, 4)


def test_kernel_basis_cutoff_is_relative_to_the_largest_singular_value():
    # the cutoff is default_rank_tol(2, 4) * sigma_1 = 4e-6, so sigma_2 = 1e-7 counts as zero
    a = with_singular_values([1e6, 1e-7], 4, seed=0)
    q = kernel_basis(a)
    assert q.shape == (4, 3)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)


def test_kernel_basis_of_a_square_matrix():
    # m = n is a wide matrix's edge: the kernel is the null rows of vt alone
    assert kernel_basis(np.eye(3)).shape == (3, 0)
    q = kernel_basis(np.diag([1.0, 1.0, 0.0]))
    assert q.shape == (3, 1)
    assert abs(q[2, 0]) == 1.0


def test_bitwise_determinism(monkeypatch):
    rng = np.random.default_rng(13)
    a = rng.standard_normal((5, 8))
    for b, route in ((a, "lapack"), (rng.standard_normal((3, GRAM_MIN_COLS)), "gram")):
        r1, taken = svd_route(monkeypatch, b)
        r2 = svd(b)
        assert taken == route
        assert np.array_equal(r1.u, r2.u) and np.array_equal(r1.s, r2.s) and np.array_equal(r1.vt, r2.vt)
    sym = a[:, :5] + a[:, :5].T
    assert sym_eig_min(sym)[0] == sym_eig_min(sym)[0]
    v1, v2 = sym_eig_min(sym)[1], sym_eig_min(sym)[1]
    assert np.array_equal(v1, v2)
    assert np.array_equal(kernel_basis(a), kernel_basis(a))
