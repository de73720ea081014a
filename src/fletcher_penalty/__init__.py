"""Smooth exact penalty for equality-constrained minimization.

Minimizes f(x) subject to h(x) = 0 through the penalty
g(x) = f(x) - <h(x), lambda(x)> + beta ||h(x)||^2 with least-squares
multipliers, certifying approximate first/second-order criticality on the
constraint level set through each iterate.
"""

from .criticality import (
    CriticalityCertificate,
    LayeredQuantities,
    certify,
    lagrangian_check,
    layered_grad,
    layered_hess,
)
from .exceptions import (
    BacktrackFailureError,
    DecreaseBelowRoundingError,
    EvaluationError,
    FletcherPenaltyError,
    NumericalFailureError,
    RankDeficiencyError,
    StepSizeError,
)
from .linalg import SvdResult, kernel_basis, svd, sym_eig_min
from .penalty import (
    BetaThresholds,
    PenaltyEval,
    beta_thresholds,
    dlambda_jacobian,
    evaluate,
    in_region,
    multipliers,
    penalty_grad,
    penalty_hess,
    penalty_value,
)
from .problems import (
    Cost,
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
from .solver import (
    IterationRecord,
    PlateauStage,
    RunTrace,
    SolverConfig,
    audit,
    audit_restore,
    eigen_backtrack,
    gradient_backtrack,
    gradient_eigenstep,
    plateau,
    restore_feasibility,
)

__version__ = "0.1.0"

# derivative_check is a diagnostic that no solve uses (the CLI runs it only in
# `check`), so it is not loaded at import: its names resolve on first access
# (PEP 562), and __all__ and __dir__ still list them
_LAZY = ("DerivativeReport", "check_problem", "fd_grad", "fd_jacobian", "relative_error")
__all__ = [name for name in globals() if not name.startswith("_")] + list(_LAZY)


def __getattr__(name):
    if name in _LAZY or name == "derivative_check":
        import importlib

        module = importlib.import_module(".derivative_check", __name__)
        return module if name == "derivative_check" else getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
