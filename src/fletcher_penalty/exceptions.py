"""Exception types shared across the package."""

__all__ = [
    "FletcherPenaltyError",
    "NumericalFailureError",
    "RankDeficiencyError",
    "EvaluationError",
    "BacktrackFailureError",
    "DecreaseBelowRoundingError",
    "StepSizeError",
]


class FletcherPenaltyError(Exception):
    """Base class for all errors raised by this package."""


class NumericalFailureError(FletcherPenaltyError):
    """A dense factorization (SVD / symmetric eigensolve) failed to converge."""


class RankDeficiencyError(FletcherPenaltyError):
    """The constraint Jacobian lost full row rank at a visited point.

    The least-squares multipliers are not well defined there, so every
    quantity built on them is unavailable.
    """

    def __init__(self, point, sigma_min, sigma_max):
        self.point = point
        self.sigma_min = sigma_min
        self.sigma_max = sigma_max
        super().__init__(
            "constraint Jacobian is rank deficient (sigma_min=%.3e, sigma_max=%.3e) "
            "at point %s" % (sigma_min, sigma_max, point)
        )


class EvaluationError(FletcherPenaltyError):
    """A problem evaluator returned a non-finite value."""


class BacktrackFailureError(FletcherPenaltyError):
    """Backtracking exhausted its trial budget without an acceptable step.

    Usually a sign that the penalty parameter is below the pointwise
    threshold required for the step-size floors to exist.
    """


class DecreaseBelowRoundingError(BacktrackFailureError):
    """Backtracking failed where no trial's decrease can be told from rounding
    (the rule is stated in solver._backtrack).

    The failure says that the tolerance is out of reach at this point, not
    that beta is too small.
    """


class StepSizeError(FletcherPenaltyError):
    """The restoration flow integrator could not make monotone progress."""

