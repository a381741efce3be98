"""Harmonic analysis and Fourier-series fitting of error profiles.

The competing compensation model: decompose an error profile into
harmonics of the mechanical revolution, keep the most prominent orders,
and fit

    err(theta) = a0 + sum_n [ a_n cos(n theta) + b_n sin(n theta) ]

by linear least squares on the profile's own angles.  On a complete
uniform grid the least-squares solution coincides with the discrete
Fourier projection, but it stays well-posed when the retained orders are
a sparse subset of a noisy spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .caldata import ErrorProfile
from .errors import (
    BadConfig,
    BadOrders,
    EmptyProfile,
    NonUniformGrid,
    RankDeficientDesign,
    UnderdeterminedFit,
)

# Cyclic grid spacing may deviate from the nominal step by this fraction
# before the profile stops counting as uniform; admits encoder angles
# displaced by realistic errors (a few arc-min on a >= 1 degree grid)
# while rejecting missing points and arbitrary angle sets.
UNIFORM_GRID_REL_TOL = 0.25


@dataclass(frozen=True)
class SpectrumEntry:
    order: int
    amplitude_arcmin: float


@dataclass(frozen=True)
class HarmonicSpectrum:
    """Per-order amplitudes, sorted by descending amplitude (ties: lower order)."""

    entries: tuple[SpectrumEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def amplitude(self, order: int) -> float:
        for e in self.entries:
            if e.order == order:
                return e.amplitude_arcmin
        raise KeyError(f"order {order} not in spectrum")


@dataclass(frozen=True)
class FourierTerm:
    n: int
    a: float  # cosine coefficient, arc-min
    b: float  # sine coefficient, arc-min


@dataclass(frozen=True)
class FourierModel:
    """DC term plus selected harmonic coefficients, all in arc-minutes."""

    a0: float
    terms: tuple[FourierTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        orders = [t.n for t in self.terms]
        if len(set(orders)) != len(orders) or any(n < 1 for n in orders):
            raise BadOrders(f"term orders must be distinct and >= 1, got {orders}")


def _check_uniform(angles: np.ndarray) -> None:
    """Angles must cover the circle on a (cyclically) uniform grid."""
    p = len(angles)
    if p < 2:
        raise NonUniformGrid("need at least 2 points to form a grid")
    s = np.sort(angles)
    step = 360.0 / p
    gaps = np.diff(s)
    wrap_gap = s[0] + 360.0 - s[-1]
    all_gaps = np.concatenate([gaps, [wrap_gap]])
    if np.max(np.abs(all_gaps - step)) > UNIFORM_GRID_REL_TOL * step:
        raise NonUniformGrid(
            f"angles deviate from a uniform {step:.4g}-degree grid over [0, 360)"
        )


def harmonic_spectrum(profile: ErrorProfile) -> HarmonicSpectrum:
    """Amplitude per harmonic order from discrete Fourier projections.

    Orders run from 0 (DC) up to the grid Nyquist order (P // 2 for P
    points).  At the exact Nyquist order of an even-count grid, where the
    cosine and sine samples collapse onto one alternating sequence, the
    projection is scaled by 1/sqrt(2) so the amplitudes stay consistent
    with the profile's mean-square energy.
    """
    if len(profile) == 0:
        raise EmptyProfile("cannot analyze an empty profile")
    angles, errors = profile.angles_deg(), profile.errors_arcmin()
    _check_uniform(angles)
    p = len(angles)

    theta = np.radians(angles)
    entries = []
    for n in range(p // 2 + 1):
        if n == 0:
            amp = abs(float(np.mean(errors)))
        else:
            a = 2.0 / p * float(np.dot(errors, np.cos(n * theta)))
            b = 2.0 / p * float(np.dot(errors, np.sin(n * theta)))
            if p % 2 == 0 and n == p // 2:
                a /= math.sqrt(2.0)
                b /= math.sqrt(2.0)
            amp = math.hypot(a, b)
        entries.append(SpectrumEntry(n, amp))
    entries.sort(key=lambda e: (-e.amplitude_arcmin, e.order))
    return HarmonicSpectrum(tuple(entries))


def select_top(spectrum: HarmonicSpectrum, count: int) -> list[int]:
    """The `count` orders of largest amplitude, descending (ties: lower order first)."""
    if count < 0 or count > len(spectrum):
        raise BadConfig(f"count must be in [0, {len(spectrum)}], got {count}")
    return [e.order for e in spectrum.entries[:count]]


def fit_fourier(profile: ErrorProfile, orders) -> FourierModel:
    """Least-squares fit of the DC term plus the given harmonic orders.

    Order 0 in `orders` is redundant (the DC column is always present).
    Raises UnderdeterminedFit when coefficients outnumber samples and
    RankDeficientDesign when the design matrix loses rank.
    """
    if len(profile) == 0:
        raise EmptyProfile("cannot fit an empty profile")
    harmonic_orders = sorted({int(n) for n in orders} - {0})
    if any(n < 0 for n in harmonic_orders):
        raise BadOrders(f"orders must be >= 0, got {orders}")
    n_coef = 1 + 2 * len(harmonic_orders)
    p = len(profile)
    if n_coef > p:
        raise UnderdeterminedFit(f"{n_coef} coefficients but only {p} samples")

    theta = np.radians(profile.angles_deg())
    errors = profile.errors_arcmin()
    columns = [np.ones(p)]
    for n in harmonic_orders:
        columns.append(np.cos(n * theta))
        columns.append(np.sin(n * theta))
    design = np.column_stack(columns)

    coef, _res, rank, _sv = np.linalg.lstsq(design, errors, rcond=None)
    if rank < n_coef:
        raise RankDeficientDesign(
            f"design matrix rank {rank} < {n_coef} coefficients"
        )
    terms = tuple(
        FourierTerm(n, float(coef[1 + 2 * idx]), float(coef[2 + 2 * idx]))
        for idx, n in enumerate(harmonic_orders)
    )
    return FourierModel(a0=float(coef[0]), terms=terms)


def eval_fourier(model: FourierModel, theta_enc_deg) -> float | np.ndarray:
    """Model error in arc-minutes at the given encoder angle(s) in degrees.

    The series is summed term by term, in term order, so every temporary is
    as long as the batch and a value has the same bits in any batch."""
    theta = np.radians(np.asarray(theta_enc_deg, dtype=float))
    value = np.full(theta.shape, model.a0, dtype=float)
    for t in model.terms:
        value += t.a * np.cos(t.n * theta) + t.b * np.sin(t.n * theta)
    return float(value) if value.ndim == 0 else value
