"""Shared exception types."""

__all__ = [
    "CapacityError",
    "ConsistencyError",
    "DivergenceError",
    "DomainError",
    "FbmchaosError",
]


class FbmchaosError(Exception):
    """Base of the package's own errors: a run refused or left unfinished."""


class DomainError(FbmchaosError, ValueError):
    """Arguments outside an operation's admissible domain."""


class CapacityError(FbmchaosError, RuntimeError):
    """Requested computation exceeds a hard size gate (refuse, don't approximate)."""


class DivergenceError(FbmchaosError, RuntimeError):
    """Numerical blow-up in a time stepper; carries the failing step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConsistencyError(FbmchaosError, RuntimeError):
    """Internal cross-check failed beyond tolerance."""
