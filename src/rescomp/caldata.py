"""Calibration data model: file I/O, error profiles, partitioning, statistics.

A calibration run pairs reference angles from a precision rotary table with
the angles reported by the encoder under test.  The signed difference
(encoder minus table), wrapped onto the short way around the circle and
expressed in arc-minutes, is the encoder's systematic error profile.  All
downstream models (network and Fourier) are fit to that profile.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptFile,
    DuplicateGridAngle,
    EmptyProfile,
    MalformedRow,
    NonFiniteStats,
    NonIntegerGrid,
    NonMonotonicGrid,
    OutOfRange,
    TooFewSamples,
)

ARCMIN_PER_DEG = 60.0

# Parity classification tolerance: calibration rigs emit exact integer
# degrees, so this only guards against file corruption.
INTEGER_GRID_TOL_DEG = 1e-9

CSV_HEADER = "table_angle_deg,encoder_angle_deg"


def wrap_signed_deg(delta_deg):
    """Map angle differences in degrees into (-180, +180], element by element."""
    wrapped = np.fmod(delta_deg, 360.0)
    wrapped = np.where(wrapped <= -180.0, wrapped + 360.0, wrapped)
    return np.where(wrapped > 180.0, wrapped - 360.0, wrapped)


def wrap_deg(angle_deg):
    """Map finite angles in degrees into [0, 360), element by element;
    OutOfRange names the first non-finite one."""
    angle = np.asarray(angle_deg, dtype=float)
    finite = np.isfinite(angle)
    if not finite.all():
        raise OutOfRange(f"angle {float(angle[~finite][0])!r} is not finite")
    # in place (each `correct` batch wraps twice), into an array even for a scalar
    wrapped = np.fmod(angle, 360.0, out=np.empty_like(angle))
    np.add(wrapped, 360.0, out=wrapped, where=wrapped < 0.0)
    # fmod can return -eps, which rounds up to 360.0 after the add
    np.subtract(wrapped, 360.0, out=wrapped, where=wrapped >= 360.0)
    return wrapped


def readonly(values, order: str = "K") -> np.ndarray:
    """A read-only float64 copy of `values`, laid out in `order`."""
    a = np.array(values, dtype=float, order=order)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class CalibrationSet:
    """Calibration columns for one encoder at one epoch.

    `table_deg[i]` is a reference table angle and `encoder_deg[i]` the angle
    the encoder reported there; both are read-only float64 columns with
    values in [0, 360).  Table angles strictly increase; at least two samples.
    """

    table_deg: np.ndarray
    encoder_deg: np.ndarray
    encoder_id: str = "unknown"

    def __post_init__(self) -> None:
        table, encoder = readonly(self.table_deg), readonly(self.encoder_deg)
        if table.ndim != 1 or table.shape != encoder.shape:
            raise MalformedRow(f"calibration columns of shapes {table.shape} and "
                               f"{encoder.shape}: need two 1-D columns of one length")
        for name, column in (("table_deg", table), ("encoder_deg", encoder)):
            outside = ~((column >= 0.0) & (column < 360.0))  # NaN is outside too
            if outside.any():
                raise OutOfRange(f"{name}={float(column[outside][0])!r} not in [0, 360)")
        if table.size < 2:
            raise TooFewSamples(f"calibration set needs >= 2 samples, got {table.size}")
        steps = np.diff(table)
        bad = np.flatnonzero(steps <= 0.0)
        if bad.size:
            i = bad[0]
            if steps[i] == 0.0:
                raise DuplicateGridAngle(f"duplicate table angle {float(table[i])!r}")
            raise NonMonotonicGrid(
                f"table angles not strictly increasing at {float(table[i + 1])!r}"
            )
        object.__setattr__(self, "table_deg", table)
        object.__setattr__(self, "encoder_deg", encoder)

    def __len__(self) -> int:
        return self.table_deg.size


@dataclass(frozen=True)
class ErrorProfile:
    """Signed encoder error in arc-minutes as a function of encoder angle.

    `points` is a read-only (P, 2) float64 array of (encoder angle in
    degrees, error in arc-minutes) rows, from any sequence of pairs.  It is
    stored column-major, so `angles_deg()` and `errors_arcmin()` are
    contiguous views: the Fourier fit's dot products then sum in the same
    order as over a fresh array, and its output keeps its last bits.
    """

    points: np.ndarray

    def __post_init__(self) -> None:
        points = readonly(np.reshape(self.points, (len(self.points), 2)), order="F")
        object.__setattr__(self, "points", points)

    def __len__(self) -> int:
        return len(self.points)

    def angles_deg(self) -> np.ndarray:
        return self.points[:, 0]

    def errors_arcmin(self) -> np.ndarray:
        return self.points[:, 1]


@dataclass(frozen=True)
class ProfileStats:
    """Aggregate statistics of an error profile, all in arc-minutes."""

    mae_arcmin: float
    rms_arcmin: float
    min_arcmin: float
    max_arcmin: float
    n_samples: int


def load_calibration(path, encoder_id: str = "unknown") -> CalibrationSet:
    """Read a calibration CSV (header + one sample per line) into a CalibrationSet.

    Raises MalformedRow for unparseable lines or bytes that are not UTF-8,
    OutOfRange for angles outside [0, 360), TooFewSamples for fewer than two
    rows, DuplicateGridAngle / NonMonotonicGrid for bad grids.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"not UTF-8 text: {exc}") from exc
    if not lines or lines[0].strip() != CSV_HEADER:
        raise MalformedRow(f"missing or wrong header line, expected {CSV_HEADER!r}")
    table, encoder = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise MalformedRow(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            table.append(float(fields[0]))
            encoder.append(float(fields[1]))
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: non-numeric field in {line!r}") from exc
    return CalibrationSet(table, encoder, encoder_id=encoder_id)


def save_calibration(path, cal: CalibrationSet) -> None:
    """Write a CalibrationSet as CSV with LF line endings."""
    write_csv(path, CSV_HEADER, zip(cal.table_deg.tolist(), cal.encoder_deg.tolist()))


def write_csv(path, header: str, rows) -> None:
    """Write a header line and then one line of comma-joined `str` values per
    row, with LF line endings; a Python float prints as its shortest exact
    decimal."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_json(path, doc) -> None:
    """Write a JSON document indented by two spaces, with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path, what: str) -> dict:
    """The JSON object in the file at `path`; CorruptFile, naming the file as
    `what`, for bad JSON or UTF-8, or a top level that is not an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError: bad JSON, bad UTF-8 or an integer past Python's digit limit;
    # RecursionError: arrays or objects nested too deep to decode
    except (ValueError, RecursionError) as exc:
        raise CorruptFile(f"not a valid {what}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptFile(f"{what} must hold a JSON object")
    return doc


def json_int(doc, key: str) -> int:
    """`doc[key]` where `doc` is a JSON object holding an integer there (a
    bool or a float such as 2.0 is not one); CorruptFile otherwise."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if type(value) is not int:
        raise CorruptFile(f"missing or non-integer {key!r}: {value!r}")
    return value


def json_float(value, what: str) -> float:
    """`value` as a float where it is a finite float or an int within the float
    range (a bool, NaN, an infinity or a string such as "0.5" is not one);
    CorruptFile naming `what` otherwise."""
    # NaN compares false, so only a finite float or an int in range passes
    if type(value) in (float, int) and abs(value) <= sys.float_info.max:
        return float(value)
    raise CorruptFile(f"non-numeric or out-of-range {what!r}: {value!r}")


def error_profile(cal: CalibrationSet) -> ErrorProfile:
    """Derive the error profile: wrap(encoder - table) * 60 per sample.

    The wrap takes the short way around the circle so a sample straddling
    the 0/360 seam yields a few arc-minutes, not a +-21600' spike.  Points
    come out ordered by encoder angle, ties in table order.
    """
    errors = wrap_signed_deg(cal.encoder_deg - cal.table_deg) * ARCMIN_PER_DEG
    order = np.argsort(cal.encoder_deg, kind="stable")
    return ErrorProfile(np.stack((cal.encoder_deg[order], errors[order]), axis=1))


def partition_even_odd(cal: CalibrationSet) -> tuple[CalibrationSet, CalibrationSet]:
    """Split a calibration set into even-degree (train) and odd-degree (test) halves.

    Table angles must sit on an integer-degree grid; raises NonIntegerGrid
    otherwise, and TooFewSamples, naming the half, if either half has fewer
    than two samples.  Union of the halves is the input, intersection empty.
    """
    nearest = np.round(cal.table_deg)
    off_grid = np.abs(cal.table_deg - nearest) > INTEGER_GRID_TOL_DEG
    if off_grid.any():
        raise NonIntegerGrid(
            f"table angle {float(cal.table_deg[off_grid][0])!r} deviates from integer grid"
        )
    even = nearest % 2 == 0
    halves = []
    for name, mask in (("even-degree (training)", even), ("odd-degree (test)", ~even)):
        count = np.count_nonzero(mask)
        if count < 2:
            raise TooFewSamples(f"the {name} half has {count} samples, needs >= 2")
        halves.append(CalibrationSet(cal.table_deg[mask], cal.encoder_deg[mask], cal.encoder_id))
    return halves[0], halves[1]


def stats(profile: ErrorProfile) -> ProfileStats:
    """MAE, RMS, min and max of the signed errors; NonFiniteStats when the MAE
    or RMS overflows, as the squares of errors past about 1e154' do."""
    if len(profile) == 0:
        raise EmptyProfile("cannot compute stats of an empty profile")
    errors = profile.errors_arcmin()
    with np.errstate(over="ignore"):
        mae = float(np.mean(np.abs(errors)))
        rms = float(np.sqrt(np.mean(errors * errors)))
    if not (np.isfinite(mae) and np.isfinite(rms)):
        raise NonFiniteStats(f"MAE {mae!r}' or RMS {rms!r}' of {len(errors)} errors is not finite")
    return ProfileStats(
        mae_arcmin=mae,
        rms_arcmin=rms,
        min_arcmin=float(errors.min()),
        max_arcmin=float(errors.max()),
        n_samples=len(errors),
    )
