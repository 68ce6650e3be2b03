"""Exception types shared across the package."""

from __future__ import annotations


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation
    (pole of a special function, weight >= 1 where a logarithm is needed,
    a quadrature order outside the supported range, and so on)."""


class RegimeError(RuntimeError):
    """The inputs are formally valid but the requested algorithm cannot
    deliver its accuracy contract there (truncation bound too large,
    non-real output beyond the monitored tolerance, a value that is not
    finite in double)."""


class NonConvergenceError(RuntimeError):
    """An iteration or series failed to converge within its safety cap."""
