"""Shared exception types."""

__all__ = [
    "CapacityError",
    "ConsistencyError",
    "DivergenceError",
    "DomainError",
    "FbmchaosError",
    "RefinementError",
]


class FbmchaosError(Exception):
    """Base of the package's own errors: a run refused or left unfinished."""


class DomainError(FbmchaosError, ValueError):
    """Arguments outside an operation's admissible domain."""


class CapacityError(FbmchaosError, RuntimeError):
    """Requested computation exceeds a hard size gate (refuse, don't approximate)."""


class RefinementError(FbmchaosError, RuntimeError):
    """A refinement sequence failed to converge; carries the last two iterates."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = tuple(last_two) if last_two is not None else None


class DivergenceError(FbmchaosError, RuntimeError):
    """Numerical blow-up in a time stepper; carries the failing step index."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConsistencyError(FbmchaosError, RuntimeError):
    """Internal cross-check failed beyond tolerance."""
