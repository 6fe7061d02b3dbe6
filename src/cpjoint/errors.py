"""Exception types raised by the package."""


class CpjointError(Exception):
    """Base class for every error raised by cpjoint."""


class NonFiniteValueError(CpjointError, ValueError):
    """An input contains NaN or infinity."""


class NotAMatrixError(CpjointError, ValueError):
    """An input is not a real two-dimensional numeric matrix."""


class TooFewObservationsError(CpjointError, ValueError):
    """A dataset has fewer than the minimum number of rows."""


class SampleTooSmallError(CpjointError, ValueError):
    """An operation needs more observations than were supplied."""


class PValueRangeError(CpjointError, ValueError):
    """A p-value is not strictly inside (0, 1)."""


class NegativeInputError(CpjointError, ValueError):
    """A nonnegative argument was negative."""


class DegenerateScaleError(CpjointError, ValueError):
    """The data carry no usable variation, or their scale leaves the double range."""


class NotSymmetricError(CpjointError, ValueError):
    """A matrix that must be symmetric is not."""


class NotPSDError(CpjointError, ValueError):
    """A matrix that must be positive semidefinite has a negative eigenvalue."""


class BadParamError(CpjointError, ValueError):
    """A simulation or configuration parameter is outside its valid range."""


class AlphaRangeError(BadParamError):
    """A significance level is not a number strictly inside (0, 1)."""
