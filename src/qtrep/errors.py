"""Exception types shared across the package, and its one array converter.

Everything raised on bad user input derives from InputError (a ValueError),
so callers can catch one type at API boundaries.  That holds for array
input too: every record and reader turns outside input into a float array
through _finite_array, which raises InputError naming the value.  Errors
that carry partial results (non-converged fits, diverged integrations)
derive from QtrepError directly and expose their payload as attributes.
"""

import numpy as np

__all__ = [
    "QtrepError",
    "InputError",
    "SizeError",
    "DegenerateChainError",
    "DegenerateChannelError",
    "GradientFormUnavailableError",
    "FitNonConvergenceError",
    "DivergenceError",
    "InconclusiveError",
]


class QtrepError(Exception):
    """Base class for all package-specific errors."""


class InputError(QtrepError, ValueError):
    """Invalid argument or configuration value."""


class SizeError(InputError):
    """Problem size outside the supported range for a brute-force path."""


class DegenerateChainError(InputError):
    """The rate graph has other than one closed class: no unique stationary state.

    kernel_dim holds the closed-class count, which equals dim ker L.
    """

    def __init__(self, message, kernel_dim):
        super().__init__(message)
        self.kernel_dim = kernel_dim


class DegenerateChannelError(InputError):
    """Dissipator with A x B = 0 (A, B parallel or zero): no single stationary state."""


class GradientFormUnavailableError(InputError):
    """Channel outside the single-dissipator, zero-field class."""


class FitNonConvergenceError(QtrepError):
    """Entropy fit left a flow residual above the acceptance tolerance.

    Attributes
    ----------
    best : the representation the fit found
    residual : float, the residual of that representation
    """

    def __init__(self, message, best):
        super().__init__(message)
        self.best = best
        self.residual = best.residual


class DivergenceError(QtrepError):
    """Non-finite state during integration; step holds the failing index."""

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step


class InconclusiveError(QtrepError):
    """Trajectory did not settle close enough to judge monotonicity."""


def _finite_array(x, name, shape):
    """x copied into a float array of the given shape, every entry finite.

    shape has at most two axes; a None allows any size along its axis,
    and () asks for a scalar.  A list of such shapes accepts any of
    them.  Raises InputError naming name when x is not numeric, has
    another shape, or holds a NaN or an infinity.  Strings and complex
    numbers are not numeric here: numpy would parse the one and drop the
    imaginary part of the other.
    """
    try:
        raw = np.asarray(x)
        if raw.dtype.kind in "USc" or (raw.dtype.kind == "O" and any(
            isinstance(v, (str, bytes, complex, np.complexfloating)) for v in raw.flat
        )):
            raise TypeError("string or complex entries")
        arr = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{name} must be a numeric {_describe(shape)}") from exc
    if arr.shape != shape and not _fits(arr.shape, shape):
        raise InputError(f"{name} must be a {_describe(shape)}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    return arr


def _fits(got, shape):
    """Whether the array shape got is shape, or one of a list of shapes."""
    if isinstance(shape, list):
        return any(_fits(got, want) for want in shape)
    return len(got) == len(shape) and all(want in (None, size) for want, size in zip(shape, got))


def _describe(shape):
    """What shape asks for: e.g. 'scalar', '3-vector', 'matrix', '2-vector or 6x2 matrix'."""
    if isinstance(shape, list):
        return " or ".join(map(_describe, shape))
    if len(shape) == 1:
        return "vector" if shape[0] is None else f"{shape[0]}-vector"
    if shape in ((), (None, None)):
        return "matrix" if shape else "scalar"
    return "x".join("N" if n is None else str(n) for n in shape) + " matrix"
