"""Exception hierarchy shared across the package.

Every public entry point raises ValidationError for an array that is not
numeric or has the wrong rank or shape: each array a caller passes is
converted by one guard, linalg._numeric_array, and its shape checked
before any other work.  The records Trajectory and LindbladSpec convert
and check their arrays once, when they are built, and keep the
converted arrays, so the functions that take one read them as built.
The JSON readers in io refuse booleans, ragged rows and non-finite
numbers, and its writers refuse an array of a shape their format does
not hold.  Scalar arguments are refused when they are bools or not real
numbers.  The rate solve raises only ValidationError: a singular row is
reported as an infinite condition, for the caller to flag or raise its
own error on."""


class ProbUnitaryError(Exception):
    """Base class for all package errors."""


class ValidationError(ProbUnitaryError, ValueError):
    """Input failed a structural check (shape, hermiticity, trace, ...)."""


class TrajectoryTooCoarse(ProbUnitaryError):
    """Adjacent eigenframes overlap too little to be matched reliably."""


class NegativeRate(ProbUnitaryError):
    """A jump rate is negative; the stochastic scheme cannot realize it."""


class StepTooLarge(ProbUnitaryError):
    """A time step makes the total jump probability reach 1."""


class RefusesToSimulate(ProbUnitaryError):
    """The decomposition to simulate has flagged (negative/singular) intervals."""

    def __init__(self, message, t_start=None, t_end=None):
        super().__init__(message)
        self.t_start = t_start
        self.t_end = t_end


class SingularChannel(ProbUnitaryError):
    """A channel pair has no split: rho_in is maximally mixed and rho_out
    is not, and every combination of unitaries fixes I/d."""
