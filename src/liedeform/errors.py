"""Exception hierarchy shared across the toolkit."""


class LieDeformError(Exception):
    """Base class for all toolkit errors."""


class InvalidInput(LieDeformError, KeyError):
    """A name or key the input should supply is unknown or missing.

    A KeyError too, so callers that catch KeyError keep working and str() keeps its quotes.
    """


class InvalidValue(LieDeformError, ValueError):
    """An input value is malformed, out of range or given twice.

    A ValueError too, so callers that catch ValueError keep working.
    """


class ShapeMismatch(LieDeformError):
    """Input array does not have the required shape."""


class NotAntisymmetric(LieDeformError):
    """A two-form matrix fails the antisymmetry contract."""


class NotACocycle(LieDeformError):
    """Theta fails the two-cocycle condition."""


class NotExact(LieDeformError):
    """Cocycle admits no primitive within tolerance.

    Carries the best least-squares candidate and its residual.
    """

    def __init__(self, message, xi=None, residual=None):
        super().__init__(message)
        self.xi = xi
        self.residual = residual


class DegenerateForm(LieDeformError):
    """The two-form is degenerate at the requested phase point.

    Carries the kernel basis (columns) when available.
    """

    def __init__(self, message, kernel=None):
        super().__init__(message)
        self.kernel = kernel


class StepRejected(LieDeformError):
    """Integrator produced a non-finite state."""
