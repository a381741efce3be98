"""Calibration data model: file I/O, error profiles, partitioning, statistics.

A calibration run pairs reference angles from a precision rotary table with
the angles reported by the encoder under test.  The signed difference
(encoder minus table), wrapped onto the short way around the circle and
expressed in arc-minutes, is the encoder's systematic error profile.  All
downstream models (network and Fourier) are fit to that profile.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import (
    CorruptFile,
    DuplicateGridAngle,
    EmptyProfile,
    MalformedRow,
    NonIntegerGrid,
    NonMonotonicGrid,
    OutOfRange,
)

ARCMIN_PER_DEG = 60.0

# Parity classification tolerance: calibration rigs emit exact integer
# degrees, so this only guards against file corruption.
INTEGER_GRID_TOL_DEG = 1e-9

CSV_HEADER = "table_angle_deg,encoder_angle_deg"


def wrap_signed_deg(delta_deg: float) -> float:
    """Map an angle difference in degrees into (-180, +180]."""
    wrapped = math.fmod(delta_deg, 360.0)
    if wrapped <= -180.0:
        wrapped += 360.0
    elif wrapped > 180.0:
        wrapped -= 360.0
    return wrapped


def wrap_angle_deg(angle_deg: float) -> float:
    """Map a finite angle in degrees into [0, 360); NaN and +-inf raise OutOfRange."""
    if not math.isfinite(angle_deg):
        raise OutOfRange(f"angle {float(angle_deg)!r} is not finite")
    wrapped = math.fmod(angle_deg, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    # fmod can return 360.0 - eps rounding back up to 360.0 after +=
    if wrapped >= 360.0:
        wrapped -= 360.0
    return wrapped


@dataclass(frozen=True)
class CalibrationSample:
    """One calibration point: reference table angle vs reported encoder angle."""

    table_angle_deg: float
    encoder_angle_deg: float

    def __post_init__(self) -> None:
        for name in ("table_angle_deg", "encoder_angle_deg"):
            value = getattr(self, name)
            if not (math.isfinite(value) and 0.0 <= value < 360.0):
                raise OutOfRange(f"{name}={value!r} not in [0, 360)")


@dataclass(frozen=True)
class CalibrationSet:
    """Ordered calibration samples for one encoder at one epoch.

    Table angles must be strictly increasing; at least two samples.
    Immutable after construction.
    """

    samples: tuple[CalibrationSample, ...]
    encoder_id: str = "unknown"
    epoch: str = "unknown"

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))
        if len(self.samples) < 2:
            raise ValueError(
                f"calibration set needs >= 2 samples, got {len(self.samples)}"
            )
        prev = None
        for s in self.samples:
            if prev is not None:
                if s.table_angle_deg == prev:
                    raise DuplicateGridAngle(f"duplicate table angle {prev!r}")
                if s.table_angle_deg < prev:
                    raise NonMonotonicGrid(
                        f"table angles not strictly increasing at {s.table_angle_deg!r}"
                    )
            prev = s.table_angle_deg

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ErrorProfile:
    """Signed encoder error in arc-minutes as a function of encoder angle.

    Points are ordered by encoder angle.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))

    def __len__(self) -> int:
        return len(self.points)

    def angles_deg(self) -> list[float]:
        return [p[0] for p in self.points]

    def errors_arcmin(self) -> list[float]:
        return [p[1] for p in self.points]


@dataclass(frozen=True)
class ProfileStats:
    """Aggregate statistics of an error profile, all in arc-minutes."""

    mae_arcmin: float
    rms_arcmin: float
    min_arcmin: float
    max_arcmin: float
    n_samples: int


def load_calibration(path, encoder_id: str = "unknown", epoch: str = "unknown") -> CalibrationSet:
    """Read a calibration CSV (header + one sample per line) into a CalibrationSet.

    Raises MalformedRow for unparseable lines or bytes that are not UTF-8,
    OutOfRange for angles outside [0, 360), DuplicateGridAngle /
    NonMonotonicGrid for bad grids.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise MalformedRow(f"not UTF-8 text: {exc}") from exc
    if not lines or lines[0].strip() != CSV_HEADER:
        raise MalformedRow(f"missing or wrong header line, expected {CSV_HEADER!r}")
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise MalformedRow(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            table = float(fields[0])
            encoder = float(fields[1])
        except ValueError as exc:
            raise MalformedRow(f"line {lineno}: non-numeric field in {line!r}") from exc
        samples.append(CalibrationSample(table, encoder))
    if len(samples) < 2:
        raise MalformedRow(f"need at least 2 data rows, got {len(samples)}")
    return CalibrationSet(tuple(samples), encoder_id=encoder_id, epoch=epoch)


def save_calibration(path, cal: CalibrationSet) -> None:
    """Write a CalibrationSet as CSV with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in cal.samples:
            fh.write(f"{s.table_angle_deg!r},{s.encoder_angle_deg!r}\n")


def write_json(path, doc) -> None:
    """Write a JSON document indented by two spaces, with LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def json_int(doc, key: str) -> int:
    """`doc[key]` where `doc` is a JSON object holding an integer there (a
    bool or a float such as 2.0 is not one); CorruptFile otherwise."""
    value = doc.get(key) if isinstance(doc, dict) else None
    if type(value) is not int:
        raise CorruptFile(f"missing or non-integer {key!r}: {value!r}")
    return value


def error_profile(cal: CalibrationSet) -> ErrorProfile:
    """Derive the error profile: wrap(encoder - table) * 60 per sample.

    The wrap takes the short way around the circle so a sample straddling
    the 0/360 seam yields a few arc-minutes, not a +-21600' spike.  Points
    come out ordered by encoder angle.
    """
    points = []
    for s in cal.samples:
        err_arcmin = wrap_signed_deg(s.encoder_angle_deg - s.table_angle_deg) * ARCMIN_PER_DEG
        points.append((s.encoder_angle_deg, err_arcmin))
    points.sort(key=lambda p: p[0])
    return ErrorProfile(tuple(points))


def partition_even_odd(cal: CalibrationSet) -> tuple[CalibrationSet, CalibrationSet]:
    """Split a calibration set into even-degree (train) and odd-degree (test) halves.

    Table angles must sit on an integer-degree grid; raises NonIntegerGrid
    otherwise.  Union of the halves is the input, intersection empty.
    """
    train, test = [], []
    for s in cal.samples:
        nearest = round(s.table_angle_deg)
        if abs(s.table_angle_deg - nearest) > INTEGER_GRID_TOL_DEG:
            raise NonIntegerGrid(
                f"table angle {s.table_angle_deg!r} deviates from integer grid"
            )
        if nearest % 2 == 0:
            train.append(s)
        else:
            test.append(s)
    return (
        CalibrationSet(tuple(train), cal.encoder_id, cal.epoch),
        CalibrationSet(tuple(test), cal.encoder_id, cal.epoch),
    )


def stats(profile: ErrorProfile) -> ProfileStats:
    """MAE, RMS, min and max of the signed errors."""
    if len(profile) == 0:
        raise EmptyProfile("cannot compute stats of an empty profile")
    errors = profile.errors_arcmin()
    n = len(errors)
    mae = sum(abs(e) for e in errors) / n
    rms = math.sqrt(sum(e * e for e in errors) / n)
    return ProfileStats(
        mae_arcmin=mae,
        rms_arcmin=rms,
        min_arcmin=min(errors),
        max_arcmin=max(errors),
        n_samples=n,
    )
