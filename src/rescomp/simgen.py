"""Synthetic encoder calibration data with known ground truth.

Systematic encoder error is modelled as a sum of harmonics of the shaft
angle (amplitude imbalance, quadrature error and inductive harmonics all
manifest as low-order cyclic errors, plus a constant offset), optional
Gaussian scatter between calibration epochs, and 16-bit quantization of
the reported angle.  Because the ground truth is analytic, end-to-end
tests can check any compensation model against the closed form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .caldata import (ARCMIN_PER_DEG, CalibrationSet, json_float, json_int, read_json, wrap_deg,
                      write_json)
from .errors import BadGrid, BadSpec, CorruptFile

# One least-significant bit of a 16-bit single-turn encoder, in degrees.
LSB_DEG = 360.0 / 65536.0
LSB_ARCMIN = LSB_DEG * ARCMIN_PER_DEG  # ~0.33 arc-min
# a spec's largest amplitude or noise sigma, one turn, keeps every synthesized angle finite
MAX_AMPLITUDE_ARCMIN = 360.0 * ARCMIN_PER_DEG


@dataclass(frozen=True)
class HarmonicTerm:
    """One cyclic error component: amp * cos(n * theta + phase)."""

    n: int
    amp_arcmin: float
    phase_rad: float

    def __post_init__(self) -> None:
        if self.n < 0 or self.n != int(self.n):
            raise BadSpec(f"harmonic order must be a non-negative integer, got {self.n!r}")
        if not abs(self.amp_arcmin) <= MAX_AMPLITUDE_ARCMIN:
            raise BadSpec(f"amplitude must be finite and at most {MAX_AMPLITUDE_ARCMIN}' "
                          f"(one turn) in size, got {self.amp_arcmin!r}")
        if not math.isfinite(self.phase_rad):
            raise BadSpec(f"phase must be finite, got {self.phase_rad!r}")


@dataclass(frozen=True)
class HarmonicSpec:
    """Ground-truth error model: harmonic terms + epoch noise + rng seed."""

    terms: tuple[HarmonicTerm, ...]
    noise_sigma_arcmin: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        orders = [t.n for t in self.terms]
        if len(set(orders)) != len(orders):
            raise BadSpec(f"harmonic orders must be distinct, got {orders}")
        if not 0 <= self.noise_sigma_arcmin <= MAX_AMPLITUDE_ARCMIN:
            raise BadSpec(f"noise sigma must be >= 0 and at most {MAX_AMPLITUDE_ARCMIN}' "
                          f"(one turn), got {self.noise_sigma_arcmin!r}")
        if self.seed < 0:
            raise BadSpec(f"seed must be >= 0, got {self.seed!r}")


def harmonic_error_arcmin(terms, theta_deg):
    """Closed-form systematic error in arc-minutes at each angle in degrees.

    The harmonic order counts cycles per full mechanical revolution, so the
    angle enters the trig functions in radians.  The terms add in order.
    """
    theta_rad = np.radians(theta_deg)
    total = np.zeros_like(theta_rad)
    for t in terms:
        total = total + t.amp_arcmin * np.cos(t.n * theta_rad + t.phase_rad)
    return total


def quantize16(angle_deg):
    """Snap angles to the 16-bit grid (round half away from zero), wrap to [0, 360)."""
    steps = np.asarray(angle_deg, dtype=float) / LSB_DEG
    rounded = np.floor(np.abs(steps) + 0.5) * np.where(steps >= 0, 1.0, -1.0)
    return wrap_deg(rounded * LSB_DEG)


def synthesize(
    spec: HarmonicSpec,
    grid_step_deg: float = 2.0,
    grid_offset_deg: float = 0.0,
    encoder_id: str = "synthetic",
    quantize: bool = True,
) -> CalibrationSet:
    """Generate a calibration set on a uniform table-angle grid.

    For each grid angle the encoder reading is the angle displaced by the
    ground-truth error (plus noise), optionally quantized to the 16-bit
    grid.  Deterministic for a fixed spec.
    """
    if not (grid_step_deg > 0 and math.isfinite(grid_step_deg)):
        raise BadGrid(f"grid step must be positive, got {grid_step_deg!r}")
    # checked before the grid is allocated: 1e-9 would ask for 3.6e11 points
    if grid_step_deg < LSB_DEG:
        raise BadGrid(f"grid step {grid_step_deg!r} is finer than one 16-bit LSB "
                      f"({LSB_DEG!r} deg, {round(360.0 / LSB_DEG)} points)")
    n_points = 360.0 / grid_step_deg
    # a step above 360 can give a point count within 1e-9 of 0 (1e12: 3.6e-10)
    if round(n_points) < 1 or abs(n_points - round(n_points)) > 1e-9:
        raise BadGrid(f"grid step {grid_step_deg!r} does not divide 360")
    if not (0.0 <= grid_offset_deg < grid_step_deg):
        raise BadGrid(f"offset {grid_offset_deg!r} not in [0, step)")
    n_points = int(round(n_points))

    theta = grid_offset_deg + np.arange(n_points) * grid_step_deg
    err_arcmin = harmonic_error_arcmin(spec.terms, theta)
    if spec.noise_sigma_arcmin > 0:
        rng = np.random.default_rng(spec.seed)
        err_arcmin = err_arcmin + spec.noise_sigma_arcmin * rng.standard_normal(n_points)
    encoder_angle = theta + err_arcmin / ARCMIN_PER_DEG
    encoder_angle = quantize16(encoder_angle) if quantize else wrap_deg(encoder_angle)
    return CalibrationSet(theta, encoder_angle, encoder_id=encoder_id)


# the keys of a spec file: `HarmonicSpec`'s fields, which `spec_to_json` writes
_SPEC_KEYS = tuple(f.name for f in fields(HarmonicSpec))


def spec_to_json(spec: HarmonicSpec, path) -> None:
    """Write a HarmonicSpec as a JSON file."""
    write_json(path, asdict(spec))


def spec_from_json(path) -> HarmonicSpec:
    """Read a HarmonicSpec from a JSON file; CorruptFile if it is malformed."""
    doc = read_json(path, "spec file")
    for key in doc:
        if key not in _SPEC_KEYS:
            raise CorruptFile(f"unknown key {key!r} in a spec file")
    raw_terms = doc.get("terms", [])
    if not isinstance(raw_terms, list):
        raise CorruptFile(f"spec 'terms' must be a JSON list, got {raw_terms!r}")
    try:
        terms = tuple(
            HarmonicTerm(json_int(t, "n"), json_float(t["amp_arcmin"], "amp_arcmin"),
                         json_float(t["phase_rad"], "phase_rad"))
            for t in raw_terms
        )
        return HarmonicSpec(
            terms=terms,
            noise_sigma_arcmin=json_float(doc.get("noise_sigma_arcmin", 0.0),
                                          "noise_sigma_arcmin"),
            seed=json_int(doc, "seed") if "seed" in doc else 0,
        )
    # ValueError: BadSpec, for a term or noise level the spec rejects
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"bad spec: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Reference archetypes
#
# Four synthetic encoders spanning the error-profile range typical of
# low-cost 16-bit resolver encoders (pre-compensation MAE between ~0.5'
# and ~1.8').  Each mixes a constant offset, dominant low-order harmonics
# and a 16-cycle ripple; amplitudes are scaled so the noiseless profile on
# a 1-degree grid has the target MAE listed below.  Phases are arbitrary
# fixed values exercising both cosine and sine components.
# ---------------------------------------------------------------------------

ARCHETYPE_MAE_TARGETS = (1.33, 0.55, 1.09, 1.78)

# (order, relative amplitude, phase) per archetype; scale factors frozen
# from the grid MAE of the noiseless closed form (see tests).
_ARCHETYPE_SHAPES = (
    ((1, 1.00, 0.70), (2, 0.50, 2.10), (16, 0.25, -1.30), (0, 0.20, 0.40)),
    ((0, 1.00, 0.00), (1, 0.80, -2.30), (2, 0.45, 1.10), (16, 0.20, 2.60)),
    ((1, 1.00, 1.90), (16, 0.50, -0.60), (2, 0.35, -2.80), (0, 0.15, 0.00)),
    ((0, 1.00, 0.00), (1, 0.85, 0.30), (16, 0.30, 1.70), (2, 0.25, -1.00)),
)

_ARCHETYPE_SCALES = (2.017921, 0.550000, 1.592717, 1.747773)

DEFAULT_NOISE_SIGMA_ARCMIN = 0.1
ARCHETYPE_BASE_SEED = 42


def archetype_spec(index: int) -> HarmonicSpec:
    """Reference spec for archetype 1..4 (seed 42 + index - 1)."""
    if not 1 <= index <= 4:
        raise BadSpec(f"archetype index must be 1..4, got {index}")
    shape = _ARCHETYPE_SHAPES[index - 1]
    scale = _ARCHETYPE_SCALES[index - 1]
    terms = tuple(HarmonicTerm(n, rel * scale, phase) for n, rel, phase in shape)
    return HarmonicSpec(
        terms=terms,
        noise_sigma_arcmin=DEFAULT_NOISE_SIGMA_ARCMIN,
        seed=ARCHETYPE_BASE_SEED + index - 1,
    )
