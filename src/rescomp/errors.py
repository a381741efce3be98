"""Exception types raised by the rescomp library.

Every domain error derives from RescompError so the CLI can map any
failure to a stable, machine-readable name (the class name).
"""


class RescompError(Exception):
    """Base class for all rescomp domain errors."""


# --- calibration data ---

class MalformedRow(RescompError):
    """A calibration CSV row could not be parsed."""


class OutOfRange(RescompError):
    """An angle lies outside [0, 360)."""


class DuplicateGridAngle(RescompError):
    """Two calibration samples share the same table angle."""


class NonMonotonicGrid(RescompError):
    """Table angles are not strictly increasing."""


class NonIntegerGrid(RescompError):
    """A table angle is not an integer degree (within tolerance)."""


class EmptyProfile(RescompError):
    """An operation needs at least one profile point."""


# --- synthetic data generation ---

class BadGrid(RescompError):
    """Grid step does not divide 360 degrees, or offset is invalid."""


# --- network ---

class DegenerateBounds(RescompError):
    """Normalization bounds with hi <= lo."""


class EmptyDataset(RescompError):
    """An operation needs at least one training pattern."""


class ShapeMismatch(RescompError):
    """Network and dataset dimensions are incompatible."""


# --- training ---

class DivergenceDetected(RescompError):
    """Training produced a non-finite MSE or parameters."""


class SingularNormalEquations(RescompError):
    """Damped normal equations stayed unsolvable through all retries."""


# --- fourier ---

class NonUniformGrid(RescompError):
    """Profile angles do not form a uniform grid over the circle."""


class UnderdeterminedFit(RescompError):
    """More free coefficients than samples."""


class RankDeficientDesign(RescompError):
    """Least-squares design matrix is rank deficient."""


# --- persistence ---

class UnsupportedVersion(RescompError):
    """Model file format version is not supported."""


class CorruptFile(RescompError):
    """Model or spec file is malformed or inconsistent."""


class KindMismatch(RescompError):
    """Model kind tag does not match its payload."""
