"""Exception types shared across the package, and its two number rules."""

import math
import numbers
import sys


class DdaeError(Exception):
    """Base class for all errors raised by ddaekit."""


class ShapeError(DdaeError, ValueError):
    """Matrix or vector dimensions are inconsistent."""


class DataError(DdaeError, ValueError):
    """Input contains non-finite or otherwise invalid entries."""


class SingularPencil(DdaeError):
    """The matrix pencil (E, A) is singular (det(sE - A) identically zero)."""


class IllConditioned(DdaeError):
    """A rank decision was ambiguous at the working tolerance.

    Attributes
    ----------
    retained : float
        Smallest singular value kept by the rank decision.
    discarded : float
        Largest singular value dropped by the rank decision.
    """

    def __init__(self, message, retained=None, discarded=None):
        super().__init__(message)
        self.retained = retained
        self.discarded = discarded


class NewtonDivergence(DdaeError):
    """Newton iteration failed to converge.

    Carries the time, last iterate and last residual norm.
    """

    def __init__(self, message, t=None, iterate=None, residual=None):
        super().__init__(message)
        self.t = t
        self.iterate = iterate
        self.residual = residual


class InconsistentInitialState(DdaeError):
    """Initial state violates the algebraic part beyond tolerance; carries
    the time, the residual and the norm ``radau.start_consistency`` took."""

    def __init__(self, message, t=None, residual=None, norm=None):
        super().__init__(message)
        self.t = t
        self.residual = residual
        self.norm = norm


class InadmissibleHistory(InconsistentInitialState):
    """History function endpoint is not consistent for the first segment."""


def _as_float(value):
    """value as a float; inf unless it is a real, not a bool, that is
    finite as a float."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    return math.inf


def check_positive(name, value):
    """value as a float; DataError naming it unless a finite positive real."""
    number = _as_float(value)
    if not 0 < number < math.inf:
        raise DataError(f"{name} must be finite and positive, got {value!r}")
    return number


def check_count(name, value, low, high=None):
    """value as an int; DataError naming it unless an integral real from low
    to high (unbounded when None), tested finite before ``int()``."""
    if not (_as_float(value) < math.inf and value == int(value)
            and low <= value <= (math.inf if high is None else high)):
        bound = f">= {low}" if high is None else f"from {low} to {high}"
        raise DataError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)
