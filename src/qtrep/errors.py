"""Exception types shared across the package, and its readers of outside input.

Everything raised on bad user input derives from InputError (a ValueError),
so callers can catch one type at API boundaries.  Each kind of outside
input has one reader here, which returns the checked value or raises
InputError naming it: _finite_array, _integer (and _integers for many at
once), _positive, _boolean, _json_object, _sequence and _instance.  Errors
carrying partial results (non-converged fits, diverged integrations)
derive from QtrepError directly and expose their payload as attributes.
"""

import math
import numbers

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
    another shape, or holds a NaN or an infinity.  Bools, strings and
    complex numbers are not numeric here: numpy would read the first as
    0/1, parse the second and drop the imaginary part of the third.
    """
    try:
        raw = np.asarray(x)
        kind = raw.dtype.kind
        # numpy casts a bool among numbers to a number: scan a list, trust an ndarray's
        # dtype, also for an array inside a list.
        if kind in "bUSc" or (kind == "O" or raw.ndim and raw is not x) and any(
            issubclass(cls, (bool, np.bool_, str, bytes, complex, np.complexfloating))
            for entries in [np.asarray(x, dtype=object).ravel()]
            for cls in set(map(type, entries)) | {v.dtype.type for v in entries if type(v) is np.ndarray}
        ):
            raise TypeError("bool, string or complex entries")
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


def _integers(values, name, minimum, maximum=None):
    """The tuple values as Python ints in [minimum, maximum], in one pass.

    A bool is not an integer here, nor is a float with an integral value.
    """
    for value in values:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise InputError(f"{name} must be an integer, got {value!r}")
    values = tuple(map(int, values))
    if values and min(values) < minimum:
        raise InputError(f"{name} must be >= {minimum}, got {min(values)}")
    if values and maximum is not None and max(values) > maximum:
        raise InputError(f"{name} must be <= {maximum}, got {max(values)}")
    return values


def _integer(x, name, minimum, maximum=None):
    """x as a Python int in [minimum, maximum]; see _integers."""
    return _integers((x,), name, minimum, maximum)[0]


def _positive(x, name):
    """x as a positive finite float.  Bools and strings are not numbers here."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise InputError(f"{name} must be a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise InputError(f"{name} must be finite")
    if value <= 0.0:
        raise InputError(f"{name} must be positive, got {value!r}")
    return value


def _boolean(x, name):
    """x as a bool; numbers, including 0 and 1, are not booleans here."""
    if not isinstance(x, (bool, np.bool_)):
        raise InputError(f"{name} must be a boolean, got {x!r}")
    return bool(x)


def _sequence(x, name):
    """x as a tuple.  Strings, bytes and dicts are not sequences here."""
    if not isinstance(x, (str, bytes, dict)):
        try:
            return tuple(x)
        except TypeError:
            pass
    raise InputError(f"{name} must be a sequence, got {type(x).__name__}")


def _instance(x, cls, name):
    """x, when it is a cls: a channel, system, representation or trajectory argument."""
    if isinstance(x, cls):
        return x
    raise InputError(f"{name} must be a {cls.__name__}, got {type(x).__name__}")


def _json_object(data, name, keys, required=()):
    """data, a dict whose keys all lie in keys and include every required key.

    Unknown keys are named in sorted order, before any missing key.
    """
    if not isinstance(data, dict):
        raise InputError(f"{name} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(str(key) for key in data if key not in keys)
    if unknown:
        raise InputError(f"unknown {name} keys: {', '.join(unknown)}")
    for key in required:
        if key not in data:
            raise InputError(f"missing required {name} key: {key}")
    return data
