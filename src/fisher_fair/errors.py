"""Exception types shared across the package, and the checks of a count
and of a tolerance argument that the library and the command line share."""

import math
import numbers


class FisherFairError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FisherFairError):
    """An instance document or argument violates a structural invariant."""


def check_count(name, value, minimum):
    """``value`` as an int; a ValidationError unless it is an integer (not a
    bool) of at least ``minimum``."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < minimum):
        raise ValidationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def check_tolerance(name, value):
    """``value`` as a float; a ValidationError unless it is a finite number
    of at least 0."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not math.isfinite(value) or value < 0):
        raise ValidationError(f"{name} must be a finite number >= 0, got {value!r}")
    return float(value)


class DomainError(FisherFairError):
    """A numeric argument lies outside the domain of the operation."""


class UnreachableUtility(FisherFairError):
    """A cut was asked to deliver more utility than the segment holds."""


class DegeneratePiece(FisherFairError):
    """A cut on an (almost) identically-zero piece cannot deliver positive utility."""


class InfeasibleUtilities(FisherFairError):
    """A utility vector is not attainable by any allocation of the interval."""


class NumericalBreakdown(FisherFairError):
    """The ellipsoid shape matrix lost positive definiteness beyond repair."""


class NotConverged(FisherFairError):
    """A solver stopped short of its tolerance; carries the best iterate found.

    The ``result`` attribute holds the best solution object (solver specific)
    and ``gap`` its certificate value, so callers can still inspect or save it.
    """

    def __init__(self, message, result=None, gap=None):
        super().__init__(message)
        self.result = result
        self.gap = gap
