"""Single-hidden-layer 1:J:1 sigmoid feed-forward network.

The net maps one normalized encoder angle x to one normalized error value:

    F = g( sum_j w_j * g( v_j x + theta_j ) + theta )

with g the logistic sigmoid.  Because g at the output layer confines
predictions to (0, 1), raw arc-minute errors are unreachable as targets;
an affine map sends a configurable error range onto [0.1, 0.9] (margins
keep targets away from sigmoid saturation), and the inverse map converts
predictions back to arc-minutes.  Inputs use degrees / 360.  The hidden
layer `_hidden` and the output layer (sums hidden @ -w_out, then `_output`)
feed the residual Jacobian, the gradient (which contracts J^T r block by
block without building J) and the pruning activation matrix through
`_activations`, and a trained net's forward pass through `forward_batch`,
chunk by chunk.  They take the inputs as the (P, 2) design matrix [x, 1],
so the hidden pre-activations x w_j + theta_j of all patterns are one matrix
product with the (2, J) matrix [w_hidden; theta_hidden] of the parameter
vector.  Both layers multiply by negated weights, which is exact, so they
compute the negated pre-activations bit for bit, and the sigmoid runs on
those in four in-place passes (clip, exp, add 1, divide), in the arrays
they allocate or in the buffers they are given.  A `Dataset` builds its
design once.

Training never reads the maps: `init_params` draws a bare parameter vector
(steep hidden sigmoids whose centres are spread over the input range, after
Nguyen & Widrow) and `mse`, `residual_jacobian` and `gradient` take one (J
follows from its length 3J + 1), so trainers and pruning carry vectors, and
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
    neg = np.array(z, dtype=float)
    return _sigmoid_in_place(np.negative(neg, out=neg))[()]


def _sigmoid_in_place(neg: np.ndarray) -> np.ndarray:
    """`sigmoid(z)` from the float64 array `neg` = -z, written over `neg`
    and returned.

    Four in-place passes: clip to [-36, 709], exp, add 1, divide 1 by the
    result.  The kernels hand it negated pre-activations, products with
    negated weights, which are exact, so no pass negates.  The bits are those
    of 1 / (1 + exp(-clip(z, -709, 36))), +-0, +-inf and NaN included.
    """
    np.clip(neg, -36.0, 709.0, out=neg)
    np.exp(neg, out=neg)
    neg += 1.0
    return np.divide(1.0, neg, out=neg)


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


# |hidden weight| of a fresh net at every width: 0.7 J at the paper's J = 80
# (Nguyen & Widrow, IJCNN 1990).  With inputs in [0, 1] a sigmoid of this
# slope rises over about 1/14 of the circle, so the hidden nodes start as
# steps spread over the input range, not as near-linear ramps that training
# must first pull apart.  It stays fixed at pruned widths: 0.7 J at J = 29
# left the retrain of a pruned net on an early plateau.
INIT_SLOPE = 56.0


def init_params(hidden: int, seed: int) -> np.ndarray:
    """The 3J + 1 parameters of a fresh 1:`hidden`:1 net, drawn from `seed`.

    Each hidden node is a sigmoid of slope +-`INIT_SLOPE` (random sign)
    centred at c_j, uniform in [0, 1]: w_j = +-INIT_SLOPE and threshold
    theta_j = -w_j c_j.  Output weights are uniform in [-0.5, 0.5] and the
    output threshold is 0.  One generator draws the signs, then the centres,
    then the output weights."""
    if hidden < 1:
        raise ShapeMismatch(f"need a 1:J:1 network with J >= 1, got J = {hidden!r}")
    rng = np.random.default_rng(seed)
    w_hidden = rng.choice((-INIT_SLOPE, INIT_SLOPE), size=hidden)
    centres = rng.uniform(0.0, 1.0, size=hidden)
    w_output = rng.uniform(-0.5, 0.5, size=hidden)
    return np.concatenate([w_hidden, -w_hidden * centres, w_output, np.zeros(1)])


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


def _hidden(params: np.ndarray, design: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hidden (P, J) activations of `params` for a (P, 2) design [x, 1],
    written into `out` (a C-contiguous (P, J) float64 array) when given.

    The negated hidden pre-activations are one product, design @ -[w_hidden;
    theta_hidden], with the (2, J) negated copy of the parameters; negation
    is exact, so they are the bits of -(x w_j + theta_j).  The matrix-matrix
    kernel rounds x w_j and then adds theta_j: the bits of the broadcast
    x * w_hidden + theta_hidden.  The x column must come first; a kernel
    that fuses multiply and add would otherwise round x w_j + theta_j once.
    numpy hands a one-row or one-column product to a matrix-vector kernel,
    which fuses even in this order, so those shapes keep the broadcast.  The
    sigmoid runs in place on the negated pre-activations.
    """
    j = _width(params)
    neg_w_theta = np.negative(params[:2 * j]).reshape(2, j)
    if design.shape[0] > 1 and j > 1:
        neg_pre = np.matmul(design, neg_w_theta, out=out)
    else:
        neg_pre = np.multiply(design[:, :1], neg_w_theta[0], out=out)
        neg_pre += neg_w_theta[1]
    return _sigmoid_in_place(neg_pre)


def _output(params: np.ndarray, neg_sums: np.ndarray) -> np.ndarray:
    """Output activations g(sums + theta) of the negated (P, 1) sums
    hidden @ -w_out, in place."""
    neg_sums -= params[-1:]
    return _sigmoid_in_place(neg_sums)


def _activations(params: np.ndarray, design: np.ndarray) -> Activations:
    """Hidden (P, J) and output (P, 1) activations of `params` for a (P, 2)
    design [x, 1]: `_hidden`, then the negated output sums and `_output`."""
    j = _width(params)
    hidden = _hidden(params, design)
    return hidden, _output(params, hidden @ np.negative(params[2 * j:3 * j, np.newaxis]))


# Element bound of `forward_batch`'s one hidden buffer of `chunk_rows(J) + 1`
# rows: 125 KiB, under glibc's default 128 KiB mmap threshold.  Freeing an
# mmapped block (an unchunked (1 024, 80) hidden block is 640 KiB) raises that
# threshold, so later temporaries of a few hundred KiB (the 241 x 241 normal
# equations of a fit in the same process) run from the heap at another speed.
CHUNK_ELEMENTS = 16_000
# Chunk lengths are multiples of this: the output sums' matrix-vector kernel
# computes rows in groups, and a group rounds differently from the rows left
# after the last one, so a row keeps its bits only when every chunk starts at
# a group boundary of the whole batch.
CHUNK_ROW_MULTIPLE = 8


def chunk_rows(width: int) -> int:
    """Rows per chunk of a batch through a net of `width` hidden nodes,
    leaving room for the one-row remainder that joins a batch's last chunk."""
    rows = CHUNK_ELEMENTS // max(width, 1) - 1
    return max(CHUNK_ROW_MULTIPLE, rows - rows % CHUNK_ROW_MULTIPLE)


def forward_batch(net: Network, x: np.ndarray) -> np.ndarray:
    """Outputs for a (P, 1) batch of normalized inputs; returns (P, 1) in (0, 1).

    Chunks of `chunk_rows(J)` rows share one design and one hidden buffer and
    write their negated output sums in place; every value has the bits of
    `_activations` over the whole batch."""
    params, width = net.params, net.n_hidden
    neg_w_out = np.negative(params[2 * width:3 * width, np.newaxis])
    design = _design(np.asarray(x, dtype=float))
    n, rows = design.shape[0], chunk_rows(width)
    neg_sums = np.empty((n, 1))
    hidden = np.empty((min(n, rows + 1), width))
    # numpy computes a one-row product as a dot product, which rounds
    # differently from the matrix-vector kernel of a longer batch, so a
    # one-row remainder joins the chunk before it
    lo = 0
    for hi in [*range(rows, n - 1, rows), n]:
        chunk = _hidden(params, design[lo:hi], out=hidden[:hi - lo])
        np.matmul(chunk, neg_w_out, out=neg_sums[lo:hi])
        lo = hi
    return _output(params, neg_sums)


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
