"""Exception hierarchy shared across the package."""


class ProbUnitaryError(Exception):
    """Base class for all package errors."""


class ValidationError(ProbUnitaryError, ValueError):
    """Input failed a structural check (shape, hermiticity, trace, ...)."""


class SingularSystem(ProbUnitaryError):
    """The circulant/Toeplitz system is singular and the right-hand side
    lies outside its range."""

    def __init__(self, message, block_structure=None):
        super().__init__(message)
        self.block_structure = block_structure


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
    """Finite-time channel decomposition hit a singular probability system."""

    def __init__(self, message, block_structure=None):
        super().__init__(message)
        self.block_structure = block_structure
