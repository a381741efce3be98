"""Exception types raised by the rescomp library.

Every domain error derives from RescompError so the CLI can map any
failure to a stable, machine-readable name (the class name).  An error for a
bad value passed in is also a ValueError, which the file readers catch.
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


class TooFewSamples(RescompError):
    """A calibration set, or one half of it, has fewer than two samples."""


class EmptyProfile(RescompError):
    """An operation needs at least one profile point."""


class NonFiniteStats(RescompError):
    """A profile's MAE or RMS overflows the float range."""


# --- synthetic data generation ---

class BadGrid(RescompError):
    """Grid step does not divide 360 degrees or is finer than one 16-bit LSB,
    or offset is invalid."""


class BadSpec(RescompError, ValueError):
    """A harmonic error spec holds a bad order, amplitude, noise sigma or seed,
    or an archetype index is unknown."""


# --- network ---

class DegenerateBounds(RescompError):
    """Normalization bounds with hi <= lo."""


class TargetOutOfRange(RescompError):
    """A profile error lies past +-7.5 arc-min, which the fixed target map of
    the +-6 arc-min tolerance band onto [0.1, 0.9] sends outside [0, 1]."""


class EmptyDataset(RescompError):
    """An operation needs at least one training pattern."""


class ShapeMismatch(RescompError):
    """A network or dataset does not have the dimensions of a 1:J:1 net, or a
    batch of angles to correct is not 0-D or 1-D."""


class NonFiniteArray(RescompError, ValueError):
    """Network parameters, or a matrix to decompose, hold NaN or infinity."""


class PatternOutOfRange(RescompError, ValueError):
    """A normalized training input or target lies outside [0, 1]."""


# --- training ---

class BadConfig(RescompError, ValueError):
    """A training or experiment setting lies outside its valid range."""


class DivergenceDetected(RescompError):
    """Training produced a non-finite MSE or parameters."""


class SingularNormalEquations(RescompError):
    """Damped normal equations stayed unsolvable through all retries."""


# --- fourier ---

class BadOrders(RescompError, ValueError):
    """Fourier orders are negative or above 2**20, or a model's term orders
    repeat or lie outside [1, 2**20]."""


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
