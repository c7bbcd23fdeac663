"""Exception hierarchy shared by all kreinspec modules.

Two failure categories are distinguished because they map to different
process exit codes in the command line front end: bad inputs (exit 2)
versus algorithms that ran and could not certify a result (exit 3).
"""

__all__ = [
    "KreinspecError",
    "ValidationError",
    "NumericalError",
    "ContourError",
    "RootCertificationError",
]


class KreinspecError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(KreinspecError, ValueError):
    """Input rejected before any computation (shape, range, or schema)."""


class NumericalError(KreinspecError, RuntimeError):
    """A numerical procedure failed to converge or to certify its result."""


class ContourError(NumericalError):
    """A cluster could not be isolated, or a contour integral not resolved."""


class RootCertificationError(NumericalError):
    """Root counting/refinement could not be certified by the winding number."""
