"""The package's five exception kinds.

`InvalidSpecError` is the one rejection of a bad argument or config: every
rule a call breaks, listed at once, raised through `check`.  The other three
are outcomes of a run that the CLI reports by name: `NonFiniteValueError` (a
NaN or infinite number reached a fit or a verdict), `SolverDivergenceError`
(a solver blew up, or the two solvers disagree) and `SweepWorkerError` (a
sweep point failed, with its index and cause).  `KPLabError` is their base.
"""


class KPLabError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(KPLabError, ValueError):
    """An argument breaks its function's rules.

    Carries the full list of violations so callers (and the CLI) can report
    every problem at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):  # a sweep worker's error is pickled back to the parent process
        return type(self), (self.violations,)


def check(*rules):
    """Raise one InvalidSpecError listing the message of every (holds, message) rule that fails."""
    violations = [message for holds, message in rules if not holds]
    if violations:
        raise InvalidSpecError(violations)


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
