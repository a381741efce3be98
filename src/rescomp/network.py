"""Single-hidden-layer 1:J:1 sigmoid feed-forward network.

The net maps one normalized encoder angle x to one normalized error value:

    F = g( sum_j w_j * g( v_j x + theta_j ) + theta )

with g the logistic sigmoid.  Because g at the output layer confines
predictions to (0, 1), raw arc-minute errors are unreachable as targets;
an affine map sends a configurable error range onto [0.1, 0.9] (margins
keep targets away from sigmoid saturation), and the inverse map converts
predictions back to arc-minutes.  Inputs use degrees / 360.  One kernel,
`_activations`, feeds the forward pass, the residual Jacobian, the gradient
(which contracts J^T r block by block without building J) and the pruning
activation matrix.  It takes the inputs as the (P, 2) design matrix [x, 1],
so the hidden pre-activations x w_j + theta_j of all patterns are one matrix
product with the (2, J) view [w_hidden; theta_hidden] of the parameter
vector, and it applies the sigmoid in place in the arrays it allocates.  A
`Dataset` builds its design once.

Training never reads the maps: `init_params` draws a bare parameter vector
and `mse`, `residual_jacobian` and `gradient` take one (J follows from its
length 3J + 1), so trainers and pruning carry vectors, and
`pipeline.fit_network` pairs the trained vector with its target map.  The
kernels also take the `(hidden, out)` activations already computed, so a
trainer runs each candidate's forward pass once.

All operations are pure; a Network is immutable and validated.  Double
precision throughout: the damped normal equations used in training are
ill-conditioned in single precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .caldata import ErrorProfile, readonly
from .errors import (
    DegenerateBounds,
    EmptyDataset,
    NonFiniteArray,
    PatternOutOfRange,
    ShapeMismatch,
    TargetOutOfRange,
)


def sigmoid(z):
    """Logistic 1 / (1 + exp(-z)), strictly inside (0, 1) for every input.

    Clamping -z to [-36, 709] keeps exp(-z) finite and 1 + exp(-z) above
    1 + 2**-53, so the result never rounds to exactly 0.0 or 1.0 and no
    overflow warning is raised, even for +-inf.  Works on a float64 copy of
    `z`, never on `z` itself; a scalar gives a scalar.
    """
    return _sigmoid_in_place(np.array(z, dtype=float))[()]


def _sigmoid_in_place(z: np.ndarray) -> np.ndarray:
    """`sigmoid` of the float64 array `z`, written over `z` and returned.

    Five in-place passes: negate, clip to [-36, 709], exp, add 1, divide 1
    by the result.  Negating before the clip gives the bits of
    1 / (1 + exp(-clip(z, -709, 36))), +-0, +-inf and NaN included.
    """
    np.negative(z, out=z)
    np.clip(z, -36.0, 709.0, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


@dataclass(frozen=True)
class AffineMap:
    """Invertible affine map [lo, hi] -> [out_lo, out_hi] between finite bounds."""

    lo: float
    hi: float
    out_lo: float
    out_hi: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.lo, self.hi, self.out_lo, self.out_hi)):
            raise DegenerateBounds(f"bounds must be finite, got {self}")
        if not (self.hi > self.lo):
            raise DegenerateBounds(f"need hi > lo, got [{self.lo!r}, {self.hi!r}]")
        if self.out_hi == self.out_lo:
            raise DegenerateBounds("output range is degenerate")
        span, out_span = self.hi - self.lo, self.out_hi - self.out_lo
        if not all(math.isfinite(v) and v != 0.0
                   for v in (span, out_span, out_span / span, span / out_span)):
            raise DegenerateBounds(f"spans and scale factors must be finite and nonzero: {self}")

    def normalize(self, x):
        return self.out_lo + (np.asarray(x, dtype=float) - self.lo) * (
            (self.out_hi - self.out_lo) / (self.hi - self.lo)
        )

    def denormalize(self, y):
        return self.lo + (np.asarray(y, dtype=float) - self.out_lo) * (
            (self.hi - self.lo) / (self.out_hi - self.out_lo)
        )


INPUT_NORM = AffineMap(0.0, 360.0, 0.0, 1.0)
TARGET_OUT_RANGE = (0.1, 0.9)
DEFAULT_TARGET_BOUNDS_ARCMIN = (-6.0, 6.0)  # manufacturer tolerance band


@dataclass(frozen=True)
class Network:
    """A 1:J:1 sigmoid net: its parameters and target map.

    `params` holds the 3J + 1 parameters in canonical order: hidden
    weights, hidden thresholds, output weights, output threshold.  The
    width J follows from the length.  Inputs always go through `INPUT_NORM`.
    """

    params: np.ndarray
    target_norm: AffineMap

    def __post_init__(self) -> None:
        params = readonly(self.params)
        if params.ndim != 1 or params.size < 4 or params.size % 3 != 1:
            raise ShapeMismatch(
                f"need the 3J + 1 parameters of a 1:J:1 net, J >= 1; got shape {params.shape}"
            )
        if not np.all(np.isfinite(params)):
            raise NonFiniteArray("network parameters must be finite")
        object.__setattr__(self, "params", params)

    @property
    def n_hidden(self) -> int:
        return _width(self.params)


@dataclass(frozen=True)
class Dataset:
    """Normalized training patterns: inputs (P, 1), targets (P, 1) in [0, 1].

    `design` is the read-only (P, 2) matrix [inputs, 1] that `_activations`
    takes, built once here so that training does not rebuild it per pass.
    """

    inputs: np.ndarray
    targets: np.ndarray
    design: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        targets = np.atleast_2d(np.asarray(self.targets, dtype=float))
        if inputs.shape[1] != 1 or targets.shape != inputs.shape:
            raise ShapeMismatch(
                f"need (P, 1) inputs and targets, got {inputs.shape} and {targets.shape}"
            )
        if inputs.shape[0] == 0:
            raise EmptyDataset("dataset needs at least one pattern")
        for name, arr in (("inputs", inputs), ("targets", targets)):
            if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
                raise PatternOutOfRange(f"{name} must lie in [0, 1]")
        object.__setattr__(self, "inputs", readonly(inputs))
        object.__setattr__(self, "targets", readonly(targets))
        design = _design(inputs)
        design.setflags(write=False)
        object.__setattr__(self, "design", design)


def init_params(hidden: int, seed: int) -> np.ndarray:
    """The 3J + 1 parameters of a fresh 1:`hidden`:1 net: weights uniform in
    [-0.5, 0.5] from `seed`, thresholds zero."""
    if hidden < 1:
        raise ShapeMismatch(f"need a 1:J:1 network with J >= 1, got J = {hidden!r}")
    rng = np.random.default_rng(seed)
    w_hidden = rng.uniform(-0.5, 0.5, size=hidden)
    w_output = rng.uniform(-0.5, 0.5, size=hidden)
    return np.concatenate([w_hidden, np.zeros(hidden), w_output, np.zeros(1)])


# hidden (P, J) and output (P, 1) activations of a parameter vector on a
# dataset's inputs; `mse`, `residual_jacobian` and `gradient` compute them
# when not given
Activations = tuple[np.ndarray, np.ndarray]


def _width(params: np.ndarray) -> int:
    """Hidden width J of a 1:J:1 parameter vector of length 3J + 1."""
    return (params.shape[0] - 1) // 3


def _design(x: np.ndarray) -> np.ndarray:
    """The (P, 2) design matrix [x, 1] of a (P, 1) batch of normalized inputs."""
    design = np.empty((x.shape[0], 2))
    design[:, :1] = x
    design[:, 1] = 1.0
    return design


def _activations(params: np.ndarray, design: np.ndarray) -> Activations:
    """Hidden (P, J) and output (P, 1) activations of `params` for a (P, 2)
    design [x, 1].

    The hidden pre-activations are one product, design @ [w_hidden;
    theta_hidden], with a zero-copy (2, J) view of the parameters.  The
    matrix-matrix kernel rounds x w_j and then adds theta_j: the bits of the
    broadcast x * w_hidden + theta_hidden.  The x column must come first; a
    kernel that fuses multiply and add would otherwise round x w_j + theta_j
    once.  numpy hands a one-row or one-column product to a matrix-vector
    kernel, which fuses even in this order, so those shapes keep the broadcast.
    Both sigmoids run in place, in the arrays allocated here.
    """
    j = _width(params)
    w_theta = params[:2 * j].reshape(2, j)
    if design.shape[0] > 1 and j > 1:
        pre = design @ w_theta
    else:
        pre = design[:, :1] * w_theta[0] + w_theta[1]
    hidden = _sigmoid_in_place(pre)
    out = hidden @ params[2 * j:3 * j, np.newaxis]
    out += params[3 * j:]
    return hidden, _sigmoid_in_place(out)


def forward_batch(net: Network, x: np.ndarray) -> np.ndarray:
    """Outputs for a (P, 1) batch of normalized inputs; returns (P, 1) in (0, 1)."""
    return _activations(net.params, _design(np.asarray(x, dtype=float)))[1]


def mse(params: np.ndarray, data: Dataset, activations: Activations | None = None) -> float:
    """Mean-squared error of `params` over all patterns, in normalized units."""
    out = _activations(params, data.design)[1] if activations is None else activations[1]
    diff = data.targets - out
    sq = diff * diff
    # the pairwise sum np.mean takes, without its wrapper
    return float(np.add.reduce(sq, axis=None)) / sq.size


def residual_jacobian(
    params: np.ndarray, data: Dataset, activations: Activations | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals r = D - O, shape (P,), and their Jacobian at `params`, one column
    per parameter.

    J[p, q] = d r_p / d param_q with parameters in canonical vector order,
    so grad(MSE) = (2 / P) * J^T r (see `gradient`).
    """
    x = data.inputs
    hidden, out = _activations(params, data.design) if activations is None else activations
    j = _width(params)
    jacobian = np.empty((x.shape[0], 3 * j + 1))
    # negating s_out before the products is exact, so each block matches
    # the same products negated afterwards bit for bit
    neg_s_out = np.negative(out * (1.0 - out), out=jacobian[:, 3 * j:])      # (P, 1)
    # d r_p / d theta_hidden[j]; the hidden weights add the factor x_p
    chain = np.multiply(neg_s_out * params[2 * j:3 * j], hidden * (1.0 - hidden),
                        out=jacobian[:, j:2 * j])                             # (P, J)
    np.multiply(chain, x, out=jacobian[:, :j])
    np.multiply(neg_s_out, hidden, out=jacobian[:, 2 * j:3 * j])
    return (data.targets - out).ravel(), jacobian


def gradient(
    params: np.ndarray, data: Dataset, activations: Activations | None = None
) -> np.ndarray:
    """Analytic d(MSE)/d(parameter) = (2 / P) * J^T r at `params`, contracted
    block by block; a flat vector in canonical parameter order.

    With e = -out (1 - out) r (P,) and slope = h (1 - h) (P, J), J^T r is
    w_out * (slope^T (x e)) for the hidden weights, w_out * (slope^T e) for
    the hidden thresholds, h^T e for the output weights and sum(e) for the
    output threshold.  The (P, 3J + 1) Jacobian of `residual_jacobian` is
    never built; the largest temporary is P x J.
    """
    x = data.inputs.ravel()
    hidden, out = _activations(params, data.design) if activations is None else activations
    e = ((out * (1.0 - out)) * (out - data.targets)).ravel()
    slope = 1.0 - hidden
    slope *= hidden                      # h (1 - h) in one P x J buffer
    j = _width(params)
    w_out = params[2 * j:3 * j]
    blocks = (w_out * ((x * e) @ slope), w_out * (e @ slope), e @ hidden, [e.sum()])
    return (2.0 / x.size) * np.concatenate(blocks)


def dataset_from_profile(profile: ErrorProfile, target_norm: AffineMap) -> Dataset:
    """Build a normalized Dataset from an error profile: angles through
    `INPUT_NORM`, errors through `target_norm`.

    TargetOutOfRange names the first error that the target map sends outside
    [0, 1], which the output sigmoid cannot reach."""
    angles, errors = profile.angles_deg(), profile.errors_arcmin()
    targets = target_norm.normalize(errors)
    outside = np.flatnonzero(~((targets >= 0.0) & (targets <= 1.0)))
    if outside.size:
        i = outside[0]
        raise TargetOutOfRange(
            f"error {float(errors[i])!r}' at {float(angles[i])!r} deg maps outside [0, 1] "
            f"with normalization bounds [{target_norm.lo!r}, {target_norm.hi!r}]'"
        )
    return Dataset(
        inputs=INPUT_NORM.normalize(angles)[:, np.newaxis],
        targets=targets[:, np.newaxis],
    )
