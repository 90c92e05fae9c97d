"""Exception hierarchy shared by all cohfreeze modules."""

from __future__ import annotations


class CohfreezeError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CohfreezeError, ValueError):
    """An input violates a domain invariant."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class OutOfRangeError(ValidationError):
    """Scalar parameter outside its legal range."""


class NotNormalizedError(ValidationError):
    """State vector norm is not 1 within tolerance."""


class InvalidCanonicalFormError(ValidationError):
    """Bit string violates the leading-zero canonical form."""


class BadRankError(ValidationError):
    """Requested rank outside 1..dim."""


class NotDiagonalError(ValidationError):
    """Matrix expected to be diagonal has off-diagonal weight."""


class NotIncoherentChannelError(ValidationError):
    """Channel's Kraus representation fails the one-per-column test."""


class NotStrictlyIncoherentError(ValidationError):
    """Channel's Kraus representation fails the one-per-row-and-column test."""


class DimensionTooLargeError(ValidationError):
    """Problem size exceeds the supported maximum dimension."""


class SpecParseError(CohfreezeError):
    """A state/channel/sweep specification could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericalInconsistencyError(CohfreezeError):
    """An internal numerical consistency check failed."""
