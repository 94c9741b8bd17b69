"""Exception types shared across the package."""


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
