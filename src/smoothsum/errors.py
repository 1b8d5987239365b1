"""Error types shared across the library."""


class SmoothsumError(Exception):
    """Base class for all library errors."""


class CountCapExceeded(SmoothsumError):
    """An enumeration would produce more elements than the configured cap."""


class ToleranceUnachievable(SmoothsumError):
    """The requested accuracy cannot be certified within the configured budget."""


class DomainError(SmoothsumError):
    """Argument outside the domain of validity (branch cut, half-plane, ...)."""


class UnwrapError(SmoothsumError):
    """Phase unwrapping failed: adjacent nodes differ by >= pi/2 after refinement."""


class PrecisionLoss(SmoothsumError):
    """The evaluation leaves the range where the error target is certified."""


class EtaTooSmall(SmoothsumError):
    """The test function's decay exponent is too small for the requested run."""
