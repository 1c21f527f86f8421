"""Exception types shared across the package.

Everything raised on bad user input derives from InputError (a ValueError),
so callers can catch one type at API boundaries.  Errors that carry partial
results (non-converged fits, diverged integrations) derive from QtrepError
directly and expose their payload as attributes.
"""


class QtrepError(Exception):
    """Base class for all package-specific errors."""


class InputError(QtrepError, ValueError):
    """Invalid argument or configuration value."""


class SizeError(InputError):
    """Problem size outside the supported range for a brute-force path."""


class DegenerateChainError(InputError):
    """The rate matrix does not define a unique stationary distribution.

    kernel_dim holds the numerically detected kernel dimension of the
    generator (1 when the failure is a negative kernel entry instead).
    """

    def __init__(self, message, kernel_dim):
        super().__init__(message)
        self.kernel_dim = kernel_dim


class DegenerateChannelError(InputError):
    """Dissipator with A = B = 0, no stationary direction defined."""


class GradientFormUnavailableError(InputError):
    """Channel outside the single-dissipator, zero-field class."""


class FitNonConvergenceError(QtrepError):
    """Entropy fit left a flow residual above the acceptance tolerance.

    Attributes
    ----------
    best : the representation the fit found
    residual : float, the residual of that representation
    """

    def __init__(self, message, best, residual):
        super().__init__(message)
        self.best = best
        self.residual = residual


class DivergenceError(QtrepError):
    """Non-finite state during integration; step holds the failing index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class InconclusiveError(QtrepError):
    """Trajectory did not settle close enough to judge monotonicity."""
