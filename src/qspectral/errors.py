"""Exception types shared across the package."""


class QSpectralError(Exception):
    """Base class for all package errors."""


class DomainError(QSpectralError):
    """Input outside the mathematical domain of an operation."""


class DimensionMismatchError(QSpectralError):
    """Incompatible vector/matrix dimensions."""


class NumericalError(QSpectralError):
    """A floating-point computation failed a consistency check."""


class DelegatedError(QSpectralError):
    """An exact answer is not available; the verdict is delegated to the oracle."""


class SpecFileError(QSpectralError):
    """Malformed operator-spec document."""
