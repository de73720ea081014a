"""Problem definitions: cost/constraint evaluators, region constants, built-ins.

A Problem bundles smooth evaluators for the cost f and the constraint h
together with the region constants: radius R in constraint norm and a lower
bound sigma_lb on the smallest singular value of the constraint Jacobian
over that region.
Built-ins cover the unit sphere (linear and Rayleigh-quotient costs), the
orthonormal-frame manifold, and Cartesian products of constraint blocks.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .linalg import _symmetrize
from .penalty import _read_h

__all__ = [
    "RegionParams",
    "Cost",
    "Problem",
    "make_sphere",
    "make_rayleigh_sphere",
    "make_stiefel",
    "make_product",
    "linear_cost",
    "quadratic_cost",
    "zero_cost",
    "random_point_in_region",
    "builtin_problem",
]


@dataclass(frozen=True)
class RegionParams:
    """Constants describing the region {x : ||h(x)|| <= radius}.

    sigma_lb lower-bounds sigma_min(Dh) over the region. Both must be
    strictly positive.
    """

    radius: float
    sigma_lb: float

    def __post_init__(self):
        for name in ("radius", "sigma_lb"):
            if not getattr(self, name) > 0:
                raise ValueError("RegionParams.%s must be strictly positive" % name)


class Cost(NamedTuple):
    """Bundle of cost evaluators over the ambient vector x; hess(x, v) is hess f(x) v."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Problem:
    """Smooth equality-constrained problem with explicit derivatives.

    Evaluators must be pure and reentrant and return fresh arrays; a
    Problem may be shared read-only across threads. Hessians are products:
    hess_f(x, v) = hess f(x) v and hess_h(x, w, v) = (sum_i w_i hess h_i(x)) v
    for an n-vector or n-by-k block v and weights w of shape (dim_h,)
    (built-ins reject any other). Every evaluator is required: the
    multiplier Jacobian, and with it the penalty gradient, needs hess_h.
    """

    dim_x: int
    dim_h: int
    region: RegionParams
    f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    hess_f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]
    jac_h: Callable[[np.ndarray], np.ndarray]
    hess_h: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    init_point: Callable[[int], np.ndarray]
    name: str = field(default="")

    def __post_init__(self):
        if not 1 <= self.dim_h < self.dim_x:
            raise ValueError(
                "need 1 <= dim_h < dim_x (full row rank requires m < n), got m=%d n=%d"
                % (self.dim_h, self.dim_x)
            )
        for name in ("f", "grad_f", "hess_f", "h", "jac_h", "hess_h", "init_point"):
            if not callable(getattr(self, name)):
                raise ValueError("Problem.%s must be callable, got %r" % (name, getattr(self, name)))


def linear_cost(c):
    """f(x) = <x, c> with constant gradient and zero Hessian."""
    c = np.asarray(c, dtype=float).ravel()
    return Cost(
        value=lambda x: float(x @ c),
        grad=lambda x: c.copy(),
        hess=lambda x, v: np.zeros(np.shape(v)),
    )


def quadratic_cost(a):
    """f(x) = 0.5 <x, A x> for symmetric A."""
    a = _symmetrize(np.array(a, dtype=float))  # its own copy: the caller's a is not changed
    return Cost(
        value=lambda x: float(0.5 * x @ (a @ x)),
        grad=lambda x: a @ x,
        hess=lambda x, v: a @ v,
    )


def zero_cost(n):
    """f = 0 on R^n."""
    return linear_cost(np.zeros(n))


def _weights(w, m):
    """Constraint-Hessian weights as a float vector, rejecting any shape but (m,)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (m,):
        raise ValueError("hess_h weights must have shape (%d,), got %s" % (m, w.shape))
    return w


def _frame_problem(name, cost, radius, dim_x, dim_h, h, jac, hess, init_point):
    """Problem for a constraint X^T X = I_p (the unit sphere is p = 1) under `cost`.

    Any radius R in (0, 1) is admissible: sigma_min(Dh) >= 2*sqrt(1 - R)
    over the region. The Taylor remainder of h is at most ||v||^2 (constant 1),
    a property the tests check and the library does not read.
    """
    if not 0 < radius < 1:
        raise ValueError("region radius must lie in (0, 1), got %r" % (radius,))
    return Problem(
        dim_x=dim_x,
        dim_h=dim_h,
        region=RegionParams(radius=radius, sigma_lb=2.0 * np.sqrt(1.0 - radius)),
        f=cost.value,
        grad_f=cost.grad,
        hess_f=cost.hess,
        h=h,
        jac_h=jac,
        hess_h=hess,
        init_point=init_point,
        name=name,
    )


# ---------------------------------------------------------------------------
# Unit sphere


def _sphere_problem(name, n, cost, radius):
    def h(x):
        return np.array([float(x @ x) - 1.0])

    def jac(x):
        return (2.0 * x).reshape(1, n)

    def hess(x, w, v):
        return 2.0 * float(_weights(w, 1)[0]) * np.asarray(v, dtype=float)

    def init_point(seed):
        g = np.random.default_rng(seed).standard_normal(n)
        return g / np.linalg.norm(g)

    return _frame_problem(name, cost, radius, n, 1, h, jac, hess, init_point)


def make_sphere(n, w, radius=0.5):
    """Linear cost <x, w> on the unit sphere ||x||^2 = 1 in R^n.

    w must be a unit vector; this is the classic problem whose maximizer w
    separates Lagrangian-based approximate criticality from the layered
    (Riemannian) notion.
    """
    if n < 2:
        raise ValueError("sphere needs n >= 2")
    w = np.asarray(w, dtype=float).ravel()
    if w.size != n:
        raise ValueError("w has length %d, expected %d" % (w.size, n))
    if abs(np.linalg.norm(w) - 1.0) > 1e-12:
        raise ValueError("w must be a unit vector (within 1e-12)")
    return _sphere_problem("sphere", n, linear_cost(w), radius)


def make_rayleigh_sphere(a, radius=0.5):
    """Rayleigh quotient 0.5 <x, A x> on the unit sphere.

    Second-order critical points are eigenvectors of A; the global minimum
    value is half the smallest eigenvalue.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    if n < 2:
        raise ValueError("sphere needs n >= 2")
    if not np.isfinite(a).all():  # a NaN would also pass the symmetry test below
        raise ValueError("matrix must be finite")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError("matrix must be symmetric (within 1e-12)")
    return _sphere_problem("rayleigh", n, quadratic_cost(a), radius)


# ---------------------------------------------------------------------------
# Orthonormal frames X^T X = I_p


def _sym_basis(p):
    """Orthonormal basis of the symmetric p-by-p matrices (Frobenius inner product).

    Off-diagonal elements carry a 1/sqrt(2) factor so that coordinate
    2-norms of constraint values equal the Frobenius norm of X^T X - I.
    """
    m = p * (p + 1) // 2
    basis = np.zeros((m, p, p))
    k = 0
    for i in range(p):
        basis[k, i, i] = 1.0
        k += 1
        for j in range(i + 1, p):
            basis[k, i, j] = basis[k, j, i] = 1.0 / np.sqrt(2.0)
            k += 1
    return basis


def make_stiefel(n, p, cost, radius=0.5):
    """Constraint X^T X = I_p over n-by-p matrices, vectorized row-major.

    The ambient variable is x = X.ravel(); the m = p(p+1)/2 constraint
    components are Frobenius coordinates of X^T X - I_p in an orthonormal
    basis of the symmetric matrices. The region constants follow the
    sphere's rule: 0 < R < 1 and sigma_lb = 2*sqrt(1 - R).
    """
    if not 1 <= p <= n:
        raise ValueError("need 1 <= p <= n")
    m = p * (p + 1) // 2
    basis = _sym_basis(p)
    dim = n * p
    eye_p = np.eye(p)
    basis_flat = basis.reshape(m, p * p)
    basis2, basis2_flat = 2.0 * basis, 2.0 * basis_flat  # X (2 B) is 2 (X B) bit for bit

    def h(x):
        xm = x.reshape(n, p)
        return basis_flat.dot((xm.T.dot(xm) - eye_p).ravel())

    def jac(x):
        # row k is vec(2 X B_k), the gradient of <B_k, X^T X - I>; @ broadcasts over k
        return (x.reshape(n, p) @ basis2).reshape(m, dim)

    def hess(x, w, v):
        # 2 kron(I_n, S(w)) v: 2 S(w) times the n-by-p reshape of each column of v
        s2 = _weights(w, m).dot(basis2_flat).reshape(p, p)
        return (s2 @ v.reshape(n, p, -1)).reshape(v.shape)

    def init_point(seed):
        g = np.random.default_rng(seed).standard_normal((n, p))
        q, r = np.linalg.qr(g)
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        return (q * signs).ravel()

    return _frame_problem("stiefel", cost, radius, dim, m, h, jac, hess, init_point)


# ---------------------------------------------------------------------------
# Cartesian products


def make_product(blocks, cost, name="product"):
    """Stack independent constraint blocks under a single cost.

    The combined region takes the smallest radius and sigma lower bound
    over the blocks; the combined Jacobian is block diagonal.
    """
    if not blocks:
        raise ValueError("need at least one block")
    dims = [b.dim_x for b in blocks]
    ms = [b.dim_h for b in blocks]
    x_off = np.concatenate([[0], np.cumsum(dims)])
    h_off = np.concatenate([[0], np.cumsum(ms)])
    n_total = int(x_off[-1])
    m_total = int(h_off[-1])
    region = RegionParams(
        radius=min(b.region.radius for b in blocks),
        sigma_lb=min(b.region.sigma_lb for b in blocks),
    )

    def split(x):
        return [x[x_off[i] : x_off[i + 1]] for i in range(len(blocks))]

    def h(x):
        return np.concatenate([b.h(xi) for b, xi in zip(blocks, split(x))])

    def jac(x):
        out = np.zeros((m_total, n_total))
        for i, (b, xi) in enumerate(zip(blocks, split(x))):
            out[h_off[i] : h_off[i + 1], x_off[i] : x_off[i + 1]] = b.jac_h(xi)
        return out

    def hess(x, w, v):
        w = _weights(w, m_total)
        out = np.zeros(v.shape)
        for i, b in enumerate(blocks):
            sl = slice(x_off[i], x_off[i + 1])
            out[sl] = b.hess_h(x[sl], w[h_off[i] : h_off[i + 1]], v[sl])
        return out

    def init_point(seed):
        parts = []
        for i, b in enumerate(blocks):
            child = int(np.random.SeedSequence([int(seed), i]).generate_state(1)[0])
            parts.append(b.init_point(child))
        return np.concatenate(parts)

    return Problem(
        dim_x=n_total,
        dim_h=m_total,
        region=region,
        f=cost.value,
        grad_f=cost.grad,
        hess_f=cost.hess,
        h=h,
        jac_h=jac,
        hess_h=hess,
        init_point=init_point,
        name=name,
    )


# ---------------------------------------------------------------------------
# Sampling and the registry


def random_point_in_region(problem, seed, scale):
    """Seeded point with ||h(x)|| <= radius.

    Perturbs the initial point by `scale` (finite, >= 0; no default, the CLI's
    --perturb owns it) along a random direction, halving the perturbation
    until the result lies in the region.
    Raises ValueError when no halving of `scale` lands in the region, e.g.
    when the initial point itself lies outside it, and EvaluationError when
    no probe lands and h at the initial point is not finite.
    """
    if not 0.0 <= scale < math.inf:
        raise ValueError("perturbation scale must be nonnegative and finite, got %r" % (scale,))
    rng = np.random.default_rng([int(seed), 0x5EED])
    x0 = problem.init_point(seed)
    v = rng.standard_normal(problem.dim_x)
    v /= np.linalg.norm(v)
    radius = problem.region.radius
    t = scale
    for _ in range(80 if scale > 0 else 1):  # at scale 0 every probe is x0
        cand = x0 + t * v
        # read raw, not through penalty's reader: an overflowing probe is a point outside,
        # and halving goes on
        with np.errstate(over="ignore", invalid="ignore"):
            inside = np.linalg.norm(problem.h(cand)) <= radius
        if inside:
            return cand
        t *= 0.5
    _read_h(problem, x0)  # a non-finite h at the start is an h fault, not a point outside
    raise ValueError("no halving of scale %r reaches the region ||h(x)|| <= %r" % (scale, radius))


# The largest n for which a built-in Rayleigh problem forms its dense n-by-n
# matrix (800 MB of float64). A --diag spec and the rayleigh --n are checked
# against it before anything of that size is allocated.
MAX_DENSE_N = 10_000


def _range_or_list(spec_str):
    """The diagonal a --diag spec names: "start..end" steps by 1 from start, "a,b,c" lists it."""
    parts = spec_str.split("..")
    try:  # with two or more "..", each comma-separated item that holds ".." is no number
        values = [float(v) for v in (parts if len(parts) == 2 else spec_str.split(","))]
    except ValueError:
        raise ValueError("--diag %r is neither a range start..end nor a comma-separated list "
                         "of numbers" % spec_str) from None
    if len(parts) == 2 and not values[0] <= values[1]:
        raise ValueError("diag range %r is empty: it needs start <= end" % spec_str)
    if not all(map(math.isfinite, values)):
        raise ValueError("--diag %r holds a value that is not finite" % spec_str)
    # A range holds floor(end - start) + 1 entries.
    size = math.floor(values[1] - values[0]) + 1 if len(parts) == 2 else len(values)
    if size > MAX_DENSE_N:
        raise ValueError("--diag %r holds more than %d entries, the cap on the dense "
                         "n-by-n matrix" % (spec_str, MAX_DENSE_N))
    if len(parts) == 2:  # start, start + 1, ..., up to the last start + k <= end
        return values[0] + np.arange(float(size))
    return np.array(values)


def _seeded_linear_cost(n, seed):
    c = np.random.default_rng([int(seed), 0xC057]).standard_normal(n)
    c /= np.linalg.norm(c)
    return linear_cost(c)


def builtin_problem(problem_id, n=None, p=None, radius=0.5, seed=0, diag=None, matrix=None):
    """Resolve a string id to a built-in Problem.

    Supported ids: "sphere" (linear cost <x, e_1>), "rayleigh" (diag(1..n),
    a `diag` spec like "1..10" or "1,4,9", or a dense `matrix`: one of the
    three), "stiefel" (seeded linear cost; p defaults to 2) and
    "product:<id>,<id>,..." (sphere/stiefel blocks under a seeded linear
    cost). Every id it cannot build raises ValueError: an unknown id, an
    unknown or empty product block, or a parameter the id does not use.
    """
    if problem_id.startswith("product:"):
        block_ids = problem_id[len("product:") :].split(",")
    elif problem_id in ("sphere", "rayleigh", "stiefel"):
        block_ids = [problem_id]
    else:
        raise ValueError("unknown problem id %r" % problem_id)
    if p is not None and "stiefel" not in block_ids:
        raise ValueError("problem %s does not take p" % problem_id)
    for name, value in (("diag", diag), ("matrix", matrix)):
        if value is not None and problem_id != "rayleigh":
            raise ValueError("problem %s does not take %s" % (problem_id, name))
    if sum(v is not None for v in (n, diag, matrix)) > 1:
        raise ValueError("rayleigh takes only one of n, diag and matrix")
    p = 2 if p is None else p
    if problem_id == "sphere":
        n = 5 if n is None else n
        return make_sphere(n, np.eye(1, n), radius=radius)
    if problem_id == "rayleigh":
        if matrix is not None:
            a = np.asarray(matrix, dtype=float)
        elif diag is not None:
            a = np.diag(_range_or_list(diag))
        else:
            n = 10 if n is None else n
            if n > MAX_DENSE_N:
                raise ValueError("--n %d is more than %d, the cap on the dense n-by-n matrix"
                                 % (n, MAX_DENSE_N))
            a = np.diag(np.arange(1.0, n + 1.0))
        return make_rayleigh_sphere(a, radius=radius)
    if problem_id == "stiefel":
        n = 8 if n is None else n
        return make_stiefel(n, p, _seeded_linear_cost(n * p, seed), radius=radius)
    blocks = []
    for bid in block_ids:
        if bid == "sphere":
            nb = 3 if n is None else n
            blocks.append(make_sphere(nb, np.eye(1, nb), radius=radius))
        elif bid == "stiefel":
            nb = 8 if n is None else n
            blocks.append(make_stiefel(nb, p, zero_cost(nb * p), radius=radius))
        else:
            raise ValueError("unknown product block id %r" % bid)
    total = sum(b.dim_x for b in blocks)
    return make_product(blocks, _seeded_linear_cost(total, seed), name=problem_id)
