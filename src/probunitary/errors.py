"""Exception hierarchy shared across the package.  The rate solvers
raise only ValidationError: a singular or inconsistent system is reported
on their RateSolveResult, for the caller to raise its own error on."""


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
    """The requested horizon contains flagged (negative/singular) intervals."""

    def __init__(self, message, t_start=None, t_end=None):
        super().__init__(message)
        self.t_start = t_start
        self.t_end = t_end


class SingularChannel(ProbUnitaryError):
    """A channel pair has no split: its cyclic system is singular with an
    eigenvalue change outside the system's range, and spec(rho_out) is not
    majorized by spec(rho_in)."""

    def __init__(self, message, block_structure=None):
        super().__init__(message)
        self.block_structure = block_structure
