"""Exception types shared across the package, and the test of a count argument."""

from numbers import Integral


def is_count(value, minimum: int) -> bool:
    """True for an int or numpy integer (not a bool, a float or a string) >= minimum."""
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= minimum


class HelmreconError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HelmreconError):
    """Invalid sizes, divisibility failures, or malformed models/config."""


class AdmissibilityError(HelmreconError):
    """omega^2 lies inside (or on the edge of) a forbidden spectral band."""


class NearEigenfrequencyError(HelmreconError):
    """The discrete system is singular or near-singular."""

    def __init__(self, message, smallest_pivot=None):
        super().__init__(message)
        self.smallest_pivot = smallest_pivot


class DiscretizationMismatchError(HelmreconError):
    """Operands live on incompatible grids, partitions, or weight operators."""


class CalibrationError(HelmreconError):
    """Empirical constant calibration failed (bad samples or nonpositive fits)."""


class LevelConditionError(HelmreconError):
    """A multi-level refinement condition is violated."""
