"""Exception types shared across the package."""

from __future__ import annotations


class ScrollGeomError(Exception):
    """Base class for every failure raised by this package."""


class FieldMismatchError(ScrollGeomError, TypeError):
    """Scalars from two different fields met in one operation."""


class FieldTooSmallError(ScrollGeomError, ValueError):
    """The field, or the span the rationals are drawn from, is too small for the sampling."""


class InexactDivisionError(ScrollGeomError):
    """Form division left a nonzero remainder."""

    def __init__(self, message, remainder=None):
        self.remainder = remainder
        super().__init__(message)


class BothZeroError(ScrollGeomError, ValueError):
    """gcd of two zero forms is undefined."""


class DegenerateFrameError(ScrollGeomError):
    """Some n+1 of the frame points are linearly dependent."""

    def __init__(self, message, subset=()):
        self.subset = tuple(subset)
        super().__init__(message)


class ZeroQuadricError(ScrollGeomError, ValueError):
    """The zero quadric was passed where a hypersurface was required."""


class NotThroughFrameError(ScrollGeomError, ValueError):
    """The quadric does not vanish on the standard point frame."""


class DependentConditionsError(ScrollGeomError, ValueError):
    """Interpolation points fail to impose independent conditions."""


class NoCoprimeWitnessError(ScrollGeomError):
    """Every kernel element of the node system shares a common factor."""

    def __init__(self, message, kernel_basis=()):
        self.kernel_basis = list(kernel_basis)
        super().__init__(message)


class InternalCheckError(ScrollGeomError):
    """An identity that must hold by construction failed; report as a bug."""
