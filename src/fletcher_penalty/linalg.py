"""Dense linear-algebra primitives with explicit tolerance contracts.

Everything here is a thin, contract-checked layer over LAPACK (through
numpy.linalg). All functions are pure and deterministic within one build:
identical inputs give bitwise-identical outputs. svd has two routes, the
Gram route and LAPACK's SVD; its docstring states when each is taken.
"""

import math
from typing import NamedTuple

import numpy as np

from .exceptions import NumericalFailureError

# The Gram route squares the condition number: sigma_i from eigh(A A^T) has a
# relative error near eps * (sigma_1 / sigma_i)^2 (Golub & Van Loan, Matrix
# Computations, 4th ed., section 8.6). It is taken only when w_min > GRAM_CUTOFF
# * w_max, i.e. sigma_min / sigma_max > 0.1. On 200 random 6-by-90 matrices per
# sigma ratio, the worst relative errors against LAPACK at ratio 0.1 were 3e-14
# (multipliers, singular values and orthonormality of vt alike); at ratio 1e-4
# they grew to 2e-8, past this module's 1e-12 orthonormality contract.
GRAM_CUTOFF = 1e-2
# Below this, entries of A A^T may lie near the subnormal range and lose digits.
GRAM_FLOOR = 1e-250
# The Gram route takes only a matrix with ||A||_F^2 below this, so A A^T cannot overflow.
GRAM_SCREEN = 1e300
# Narrower matrices stay with LAPACK: for m >= 2 below about 64 columns, eigh's
# fixed cost makes the Gram route no faster than LAPACK's SVD (timed for m = 2..6).
GRAM_MIN_COLS = 64

__all__ = [
    "SvdResult",
    "vector_norm",
    "default_rank_tol",
    "svd",
    "sym_eig_min",
    "kernel_basis",
]


def _by_identity(cls):
    """A record of arrays compares and hashes as an object, as a dataclass with eq=False
    does: a tuple's field-wise == of its ndarray fields could only raise. The library's one
    statement of the rule, applied to each named tuple that holds arrays."""
    cls.__eq__, cls.__ne__, cls.__hash__ = object.__eq__, object.__ne__, object.__hash__
    return cls


@_by_identity
class SvdResult(NamedTuple):
    """Thin SVD A = u @ diag(s) @ vt with s sorted nonincreasing.

    With k = min(m, n), u is (m, k), s has k entries and vt is (k, n).
    Reconstruction is accurate to 1e-10 * (1 + ||A||_F) in Frobenius norm,
    and the rows of u^T and vt are orthonormal to 1e-12, on either route.
    """

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    @property
    def sigma_max(self):
        return float(self.s[0]) if self.s.size else 0.0

    @property
    def sigma_min(self):
        return float(self.s[-1]) if self.s.size else 0.0


def vector_norm(v):
    """Euclidean norm of a real 1-D array, as a float.

    Bitwise equal to float(np.linalg.norm(v)), which also takes the square root
    of v.dot(v) (half the cost of v @ v on short vectors), without its dispatch cost.
    """
    return math.sqrt(float(v.dot(v)))


def default_rank_tol(rows, cols):
    """Numerical-rank cutoff: singular values below tol * sigma_1 count as zero."""
    return 1e-12 * max(rows, cols)


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array, got shape %s" % (a.shape,))
    return a


def _finite(a):
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _lapack_svd(a, full_matrices):
    try:
        return np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("SVD did not converge: %s" % exc) from exc


def _gram_svd(a):
    """The thin SVD of a wide a from eigh(a a^T), or None where that route does
    not apply: ||a||_F^2 not below GRAM_SCREEN (a non-finite a among them), an
    eigenvalue ratio at most GRAM_CUTOFF, a smallest eigenvalue below
    GRAM_FLOOR, or a failed eigensolve."""
    # vdot, unlike a product, warns of no overflow, and by Cauchy-Schwarz every entry of
    # a a^T is at most ||a||_F^2: below the screen, the product overflows nowhere and
    # needs no errstate. The screen is svd's finiteness check on this route.
    if not float(np.vdot(a, a)) < GRAM_SCREEN:
        return None
    g = a @ a.T
    if len(g) == 1:
        w, u = g[0], np.ones((1, 1))  # what eigh returns for a 1-by-1 matrix
    else:
        try:
            w, u = np.linalg.eigh(g)
        except np.linalg.LinAlgError:
            return None
    if not (w[0] > GRAM_CUTOFF * w[-1] and w[0] > GRAM_FLOOR):  # w is ascending
        return None
    s = np.sqrt(w[::-1])
    u = u[:, ::-1]
    return SvdResult(u, s, (u / s).T @ a)


def svd(a):
    """Thin singular value decomposition of a dense matrix.

    A wide matrix (0 < m <= n, n >= GRAM_MIN_COLS) with ||A||_F^2 < GRAM_SCREEN
    and sigma_min / sigma_max > 0.1 is factored through eigh(A A^T):
    s = sqrt(w), u its eigenvectors and vt = diag(1/s) u^T A. Every other
    matrix goes to LAPACK, so every rank-deficiency decision is made on
    LAPACK's singular values. Raises ValueError on non-finite entries, and
    NumericalFailureError if LAPACK's iteration does not converge within
    its sweep budget.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if n >= GRAM_MIN_COLS and 0 < m <= n:
        res = _gram_svd(a)  # None on a non-finite a, which _finite rejects below
        if res is not None:
            return res
    u, s, vt = _lapack_svd(_finite(a), full_matrices=False)
    return SvdResult(u, s, vt)


def _symmetrize(a):
    """(A + A^T)/2 of a square float array a, in place as A/2 + (A/2)^T; returns a. Bit for
    bit the halved sum in the normal range and finite for any finite A: the library's one
    statement of the rule, which each owner of a symmetric matrix applies once, then scans."""
    a *= 0.5
    a += a.T  # numpy buffers the overlapping transpose
    return a


def _sym_eig_min(sym, vector=True):
    """sym_eig_min of a symmetric matrix read as it is: eigh and eigvalsh read one triangle."""
    try:
        if not vector:
            return float(np.linalg.eigvalsh(sym)[0]), None
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("symmetric eigensolve did not converge: %s" % exc) from exc
    return float(w[0]), v[:, 0].copy()


def sym_eig_min(h, vector=True):
    """Smallest eigenvalue and a unit eigenvector of the symmetrized matrix.

    A copy of the square input goes through _symmetrize and is scanned once (ValueError on a
    non-square or non-finite h). The library's callers symmetrize their own matrices and
    call the private _sym_eig_min. With vector=False only the eigenvalues are computed
    (eigvalsh, about half the cost of eigh) and the vector returned is None.
    """
    h = _as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (h.shape,))
    return _sym_eig_min(_finite(_symmetrize(h.copy())), vector)


def min_eig_above(h, floor):
    """Whether the symmetric matrix h has its smallest eigenvalue above floor.

    h is read as its owner formed it through _symmetrize and scanned it, and not modified.
    A Cholesky factorization of H - floor I (LAPACK's, which reads the lower triangle only)
    succeeds exactly when that matrix is positive definite (Golub & Van Loan, Matrix
    Computations, 4th ed., section 4.2): the convergence test without an eigensolve, at
    n = 120 a small fraction of the cost of eigh. A smallest eigenvalue within rounding of
    floor may go either way.
    """
    shifted = h.copy()
    shifted.flat[::len(shifted) + 1] -= floor
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def kernel_basis(a):
    """Orthonormal basis of the numerical kernel of a wide matrix.

    For an m-by-n input with m <= n, returns an n-by-k matrix Q whose
    columns span {v : ||A v|| <= default_rank_tol(m, n) * sigma_1 * ||v||};
    for full-rank A that is exactly n - m columns.
    """
    a = _finite(_as_matrix(a))
    m, n = a.shape
    if m > n:
        raise ValueError("kernel_basis expects m <= n, got shape %s" % (a.shape,))
    # The kernel needs the complete right basis, so this is the one full SVD.
    _, s, vt = _lapack_svd(a, full_matrices=True)
    cutoff = default_rank_tol(m, n) * (s[0] if s.size else 0.0)
    null_rows = [i for i in range(m) if s[i] <= cutoff]
    rows = null_rows + list(range(m, n))
    return vt[rows].T.copy()
