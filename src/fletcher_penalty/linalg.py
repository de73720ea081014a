"""Dense linear-algebra primitives with explicit tolerance contracts.

Everything here is a thin, contract-checked layer over LAPACK (through
numpy.linalg). All functions are pure and deterministic within one build:
identical inputs give bitwise-identical outputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericalFailureError

__all__ = [
    "SvdResult",
    "vector_norm",
    "default_rank_tol",
    "svd",
    "sym_eig_min",
    "kernel_basis",
]


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = u @ diag(s) @ vt with s sorted nonincreasing.

    With k = min(m, n), u is (m, k), s has k entries and vt is (k, n).
    Reconstruction is accurate to 1e-10 * (1 + ||A||_F) in Frobenius norm.
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

    Bitwise equal to float(np.linalg.norm(v)), which also takes the square
    root of v . v, without that function's dispatch cost.
    """
    return math.sqrt(float(v @ v))


def default_rank_tol(rows, cols):
    """Numerical-rank cutoff: singular values below tol * sigma_1 count as zero."""
    return 1e-12 * max(rows, cols)


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-D array, got shape %s" % (a.shape,))
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def _lapack_svd(a, full_matrices):
    try:
        return np.linalg.svd(a, full_matrices=full_matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("SVD did not converge: %s" % exc) from exc


def svd(a):
    """Thin singular value decomposition of a dense matrix.

    Raises NumericalFailureError if the underlying iteration does not
    converge within LAPACK's sweep budget.
    """
    u, s, vt = _lapack_svd(_as_matrix(a), full_matrices=False)
    return SvdResult(u=u, s=s, vt=vt)


def sym_eig_min(h):
    """Smallest eigenvalue and a unit eigenvector of the symmetrized matrix.

    The input is symmetrized as (H + H^T)/2 first. The library's own
    callers (penalty_hess and the certificate's reduced Hessian) already
    pass symmetric matrices; the symmetrization is there for callers outside
    the library, whose asymmetry must not reach the eigensolver.
    """
    h = _as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ValueError("expected a square matrix, got shape %s" % (h.shape,))
    sym = 0.5 * (h + h.T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("symmetric eigensolve did not converge: %s" % exc) from exc
    return float(w[0]), v[:, 0].copy()


def kernel_basis(a):
    """Orthonormal basis of the numerical kernel of a wide matrix.

    For an m-by-n input with m <= n, returns an n-by-k matrix Q whose
    columns span {v : ||A v|| <= default_rank_tol(m, n) * sigma_1 * ||v||};
    for full-rank A that is exactly n - m columns.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m > n:
        raise ValueError("kernel_basis expects m <= n, got shape %s" % (a.shape,))
    # The kernel needs the complete right basis, so this is the one full SVD.
    _, s, vt = _lapack_svd(a, full_matrices=True)
    cutoff = default_rank_tol(m, n) * (s[0] if s.size else 0.0)
    null_rows = [i for i in range(m) if s[i] <= cutoff]
    rows = null_rows + list(range(m, n))
    return vt[rows].T.copy()
