"""Exception types shared across the package.

Each carries only its message, which names what went wrong.
"""

from __future__ import annotations


class ScrollGeomError(Exception):
    """Base class for every failure raised by this package."""


class FieldMismatchError(ScrollGeomError, TypeError):
    """Scalars from two different fields met in one operation."""


class FieldTooSmallError(ScrollGeomError, ValueError):
    """The field, or the span the rationals are drawn from, is too small for the sampling."""


class InexactDivisionError(ScrollGeomError):
    """Form division left a nonzero remainder."""


class BothZeroError(ScrollGeomError, ValueError):
    """gcd of two zero forms is undefined."""


class DegenerateFrameError(ScrollGeomError):
    """Some n+1 of the frame points are linearly dependent."""


class ZeroQuadricError(ScrollGeomError, ValueError):
    """The zero quadric was passed where a hypersurface was required."""


class NotThroughFrameError(ScrollGeomError, ValueError):
    """The quadric does not vanish on the standard point frame."""


class DependentConditionsError(ScrollGeomError, ValueError):
    """Interpolation points fail to impose independent conditions."""


class NoCoprimeWitnessError(ScrollGeomError):
    """Every kernel element of the node system shares a common factor."""


class InternalCheckError(ScrollGeomError):
    """An identity that must hold by construction failed; report as a bug."""
