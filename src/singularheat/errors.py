"""Exception hierarchy shared by all modules."""


class SingularHeatError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(SingularHeatError):
    """An evaluation landed on (or within tolerance of) a pole."""


class AdmissibilityError(SingularHeatError):
    """Exponent pair violates the admissibility constraints."""


class RangeError(SingularHeatError):
    """Argument outside the supported range (indices, orders, grids)."""


class DomainError(SingularHeatError):
    """Input object outside the domain an operation supports."""


class DegenerateInputError(SingularHeatError):
    """Input is degenerate for the requested computation."""


class QuadratureError(SingularHeatError):
    """A quadrature or a simulated sample missed its accuracy check:
    regint.i_reg's panel rules disagree, or a simulate sample is not
    finite or has err above tolerances.halfline times |beta|."""


class TruncationError(SingularHeatError):
    """A series truncation bound could not be met within the term cap."""


class IllConditionedError(SingularHeatError):
    """Least-squares system too ill conditioned to trust."""


class InsufficientDataError(SingularHeatError):
    """Not enough samples (or t-range) for the requested fit."""
