"""Shared exception types.

Construction-time precondition failures (bad parameters, unknown names)
raise plain ValueError; the classes below mark failures that carry
dynamical meaning and that callers may want to catch individually.
"""
from __future__ import annotations


class DenjoyLabError(Exception):
    """Base class for all package-specific errors."""


class NotDifferentiableError(DenjoyLabError):
    """An operation needed a derivative the map does not carry."""


class RootFindError(DenjoyLabError):
    """Inverse evaluation failed; message carries the bracketing diagnostics."""


class DegenerateTupleError(DenjoyLabError):
    """Four-tuple spacing collapsed below the degeneracy threshold."""


class NonMonotoneMapError(DenjoyLabError):
    """A map reversed the order of the points it was applied to."""


class CollapsedArcError(DenjoyLabError, ValueError):
    """An arc's image, or the gap between its ends (the rest of the
    circle), shrank below floating-point resolution: the image's lift span
    is not strictly between 0 and 1."""


class FloatRangeError(DenjoyLabError, OverflowError):
    """A constant the caller asked for, or a lift orbit, lies past the
    range of floats."""


class OverlappingArcsError(DenjoyLabError, ValueError):
    """Arcs that had to be pairwise disjoint overlap."""


class PeriodicOrbitError(DenjoyLabError):
    """A periodic orbit was detected where an irrational rotation was required."""

    def __init__(self, period: int, message: str | None = None):
        self.period = period
        super().__init__(message or f"periodic orbit of period {period}")


class UnresolvedExtremaError(DenjoyLabError):
    """Sampling resolution too coarse to separate neighbouring extrema."""

    def __init__(self, cell: tuple[float, float], message: str | None = None):
        self.cell = cell
        super().__init__(
            message or f"unresolved extrema in cell [{cell[0]:.6g}, {cell[1]:.6g}]; "
            "increase resolution"
        )
