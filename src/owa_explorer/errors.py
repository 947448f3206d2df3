"""Exception hierarchy.

Three branches matter to the CLI: ConfigError (exit 2), DataError (exit 3)
and NumericalError (exit 4). Everything raised by the library derives from
OwaExplorerError so callers can catch broadly.
"""


class OwaExplorerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(OwaExplorerError):
    """Invalid configuration file, key or CLI argument."""


class DataError(OwaExplorerError):
    """Invalid or inconsistent input data."""


class NumericalError(OwaExplorerError):
    """A numerical procedure failed to produce a valid result."""


# grid
class MalformedHeader(DataError):
    """ASCII grid header is missing, duplicated or unparseable."""


class DimensionMismatch(DataError):
    """Cell count does not match the declared grid dimensions."""


class NonNumericCell(DataError):
    """A grid body token is not a finite number."""


class AlignmentError(DataError):
    """Two grids do not share the same spatial frame."""


class ValueRangeError(DataError):
    """A valid criterion cell lies outside [0, 1]."""


class NonPositiveWeight(DataError):
    """Criterion weights must be strictly positive."""


# criteria preparation
class UnknownClass(DataError):
    """Land-cover class code absent from the capacity matrix."""


class UnknownService(DataError):
    """Service name absent from the capacity matrix."""


class UnknownCategory(DataError):
    """Category code absent from a categorical factor table."""


class OutOfRange(DataError):
    """Scalar input outside its documented domain."""


class AllInvalid(DataError):
    """Raster has no valid cells."""


class NegativeValue(DataError):
    """Raster holds a negative value where only non-negative ones are allowed."""


class NegativeDistance(DataError):
    """Distances must be non-negative."""


class ZeroWeight(DataError):
    """A criterion weight of zero is not allowed."""


# strategy space
class OutOfUnitSquare(DataError):
    """(risk, trade-off) coordinates must lie in the unit square."""


class InfeasibleStrategy(DataError):
    """(risk, trade-off) point lies outside the parabolic strategy space."""


class NoSolution(NumericalError):
    """No generating distribution matches the requested moments.

    Carries ``design_index`` when raised while processing an experimental
    design, so batch failures point at the offending point.
    """

    def __init__(self, message: str, design_index: int | None = None):
        super().__init__(message)
        self.design_index = design_index


class Unconverged(NumericalError):
    """Iteration limit reached before the requested tolerance."""


# OWA engine
class LengthMismatch(DataError):
    """Vectors passed to the aggregation operator differ in length."""


# cluster analysis
class MaskMismatch(DataError):
    """Map store validity mask does not match the expected mask."""


class BadK(DataError):
    """Requested cluster count outside [1, number of maps]."""


class EmptyCluster(DataError):
    """A cluster ended up with no members (defensive; unreachable from a valid cut)."""
