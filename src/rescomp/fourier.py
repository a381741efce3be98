"""Harmonic analysis and Fourier-series fitting of error profiles.

The competing compensation model: decompose an error profile into
harmonics of the mechanical revolution, keep the most prominent orders,
and fit

    err(theta) = a0 + sum_n [ a_n cos(n theta) + b_n sin(n theta) ]

by linear least squares on the profile's own angles.  On a complete
uniform grid the least-squares solution coincides with the discrete
Fourier projection, but it stays well-posed when the retained orders are
a sparse subset of a noisy spectrum.

The spectrum, the fit's design and the evaluation take cos(n theta) and
sin(n theta) from one kernel, `_phasors`, as the real and imaginary parts
of z^n with z = e^{i theta} (de Moivre).
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

# The largest harmonic order a model may hold.  |z^n| from `_phasors` drifts
# from 1 by about n * 2**-52 (1.3e-10 measured at 2**20, past 2 at 2**53), so
# up to this order its cosines and sines stay below 1 + 2**-20 in size.  A fit
# on the 65 536 codes of a 16-bit encoder selects at most order 2**15.
MAX_ORDER = 2 ** 20


@dataclass(frozen=True)
class SpectrumEntry:
    order: int
    amplitude_arcmin: float


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
        if len(set(orders)) != len(orders) or not all(1 <= n <= MAX_ORDER and n == int(n)
                                                      for n in orders):
            raise BadOrders(f"term orders must be distinct integers in [1, 2**20], got {orders}")


def _phasors(theta: np.ndarray, orders):
    """Yield e^{i n theta}, a complex128 array, for each order n >= 1 in
    `orders`, in that order, at the angles `theta` (an array, in radians).

    z = e^{i theta} takes one cosine and one sine per angle, and z^n is the
    product, in ascending bit order, of the kept squares z^(2^k) at the set
    bits of n: its bits depend only on n and theta, and no temporary grows
    with the number of orders.  A yielded array may be a kept square: read it
    only."""
    z = np.empty(theta.shape, dtype=complex)
    z.real = np.cos(theta)
    z.imag = np.sin(theta)
    squares = [z]
    for n in map(int, orders):
        power = None
        for k in range(n.bit_length()):
            if k == len(squares):
                squares.append(squares[-1] * squares[-1])
            if n >> k & 1:
                power = squares[k] if power is None else power * squares[k]
        yield power


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


def harmonic_spectrum(profile: ErrorProfile) -> tuple[SpectrumEntry, ...]:
    """Amplitude per harmonic order from discrete Fourier projections,
    sorted by descending amplitude (ties: lower order first).

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

    orders = range(1, p // 2 + 1)
    entries = [SpectrumEntry(0, abs(float(np.mean(errors))))]
    for n, zn in zip(orders, _phasors(np.radians(angles), orders)):
        a = 2.0 / p * float(np.dot(errors, zn.real))
        b = 2.0 / p * float(np.dot(errors, zn.imag))
        if p % 2 == 0 and n == p // 2:
            a /= math.sqrt(2.0)
            b /= math.sqrt(2.0)
        entries.append(SpectrumEntry(n, math.hypot(a, b)))
    entries.sort(key=lambda e: (-e.amplitude_arcmin, e.order))
    return tuple(entries)


def select_top(spectrum: tuple[SpectrumEntry, ...], count: int) -> list[int]:
    """The `count` orders of largest amplitude, descending (ties: lower order first)."""
    if count < 0 or count > len(spectrum):
        raise BadConfig(f"count must be in [0, {len(spectrum)}], got {count}")
    return [e.order for e in spectrum[:count]]


def fit_fourier(profile: ErrorProfile, orders) -> FourierModel:
    """Least-squares fit of the DC term plus the given harmonic orders.

    Order 0 in `orders` is redundant (the DC column is always present).
    Raises UnderdeterminedFit when coefficients outnumber samples and
    RankDeficientDesign when the design matrix loses rank.
    """
    if len(profile) == 0:
        raise EmptyProfile("cannot fit an empty profile")
    harmonic_orders = sorted({int(n) for n in orders} - {0})
    if not all(0 <= n <= MAX_ORDER for n in harmonic_orders):
        raise BadOrders(f"orders must be in [0, 2**20], got {orders}")
    n_coef = 1 + 2 * len(harmonic_orders)
    p = len(profile)
    if n_coef > p:
        raise UnderdeterminedFit(f"{n_coef} coefficients but only {p} samples")

    errors = profile.errors_arcmin()
    columns = [np.ones(p)]
    for zn in _phasors(np.radians(profile.angles_deg()), harmonic_orders):
        columns += (zn.real, zn.imag)
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
    """Model error in arc-minutes at the given encoder angle(s) in degrees:
    a float for one angle, an array for an array of them.

    The series is summed term by term, in term order, adding
    a Re(z^n) + b Im(z^n) with z^n from `_phasors`, so every temporary is as
    long as the batch.  A value has the same bits in any batch: one angle
    goes through the kernel as a 1-element array, because numpy multiplies
    complex scalars with other bits than complex arrays."""
    theta = np.asarray(theta_enc_deg, dtype=float)
    flat = np.radians(np.atleast_1d(theta))
    value = np.full(flat.shape, model.a0)
    for t, zn in zip(model.terms, _phasors(flat, [t.n for t in model.terms])):
        value += t.a * zn.real + t.b * zn.imag
    return float(value[0]) if theta.ndim == 0 else value
