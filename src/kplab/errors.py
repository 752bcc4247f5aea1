"""Exception types shared across the package."""


class KPLabError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(KPLabError, ValueError):
    """A grid or experiment configuration violates its invariants.

    Carries the full list of violations so callers (and the CLI) can report
    every problem at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def check(*rules):
    """Raise one InvalidSpecError listing the message of every (holds, message) rule that fails."""
    violations = [message for holds, message in rules if not holds]
    if violations:
        raise InvalidSpecError(violations)


class ZeroDenominatorError(KPLabError, ZeroDivisionError):
    """A ratio was requested with a vanishing denominator."""


class ExponentRangeError(KPLabError, ValueError):
    """A Lebesgue exponent is outside its admissible range."""


class ShapeMismatchError(KPLabError, ValueError):
    """Sample array shape does not match the grid."""


class BandExceedsGridError(KPLabError, ValueError):
    """Requested frequency band does not fit on the grid."""


class WindowTooSmallError(KPLabError, ValueError):
    """Time cutoff support exceeds the representable time window."""


class InsufficientSpanError(KPLabError, ValueError):
    """Too few scaling samples, or too little spread in N, for a log-log fit."""


class NonpositiveValueError(KPLabError, ValueError):
    """Log-log fitting requires strictly positive sample values."""


class NonFiniteValueError(KPLabError, ValueError):
    """A NaN or infinite number reached a fit or a verdict."""


class SolverDivergenceError(KPLabError, RuntimeError):
    """A time stepper or fixed-point iteration is blowing up."""


class SweepWorkerError(KPLabError, RuntimeError):
    """A sweep worker failed; records the index of the offending point."""

    def __init__(self, index, cause):
        self.index = index
        self.cause = cause
        super().__init__(f"sweep worker failed at point index {index}: {cause!r}")
