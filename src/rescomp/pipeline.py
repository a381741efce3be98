"""Model persistence, angle correction and evaluation: the correction side.

A compensation model (trained network or fitted Fourier series) is stored
as a versioned JSON weight file.  At run time one model call predicts the
systematic error at a batch of measured encoder angles, each corrected to

    corrected = measured - predicted_error / 60    (wrapped into [0, 360))

The fitting side lives in `config` (the settings) and `experiment` (the
fits and `run_experiment`), so a process that loads a model and corrects
angles loads no training code.  Callers that still reach their names here
(`pipeline.run_experiment`, `pipeline.ExperimentConfig` and the others in
`_MOVED`) get each from its defining module, imported on first use.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import asdict, dataclass

import numpy as np

from .caldata import (
    ARCMIN_PER_DEG,
    CalibrationSet,
    ErrorProfile,
    ProfileStats,
    error_profile,
    json_float,
    json_int,
    read_json,
    readonly,
    stats,
    wrap_deg,
    write_json,
)
from .errors import (
    CorruptFile,
    DegenerateBounds,
    KindMismatch,
    ShapeMismatch,
    UnsupportedVersion,
)
from .fourier import FourierModel, FourierTerm, eval_fourier
from .network import INPUT_NORM, TARGET_NORM, AffineMap, Network, forward_batch

FORMAT_VERSION = 1
KIND_ANN = "ann"
KIND_FOURIER = "fourier"

# the fitting side's names, by the module that defines them now
_MOVED = {
    "ExperimentConfig": "config",
    "MAX_HIDDEN": "config",
    "ExperimentResult": "experiment",
    "fit_fourier_baseline": "experiment",
    "fit_network": "experiment",
    "run_experiment": "experiment",
    "write_history_csv": "experiment",
    "write_residuals_csv": "experiment",
    "write_spectrum_csv": "experiment",
}

# the model-file keys that hold each model kind's payload
_PAYLOAD_KEYS = {
    KIND_ANN: ("shape", "input_norm", "target_norm", "hidden_weights",
               "hidden_thresholds", "output_weights", "output_thresholds"),
    KIND_FOURIER: ("a0", "terms"),
}
# the model-file keys every kind shares
_HEADER_KEYS = ("format_version", "kind", "encoder_id")


@dataclass(frozen=True)
class CompensationModel:
    """One encoder's compensation artifact: a Network or a FourierModel.

    Its kind is the payload's type; the model file stores it as a tag."""

    encoder_id: str
    payload: Network | FourierModel

    def __post_init__(self) -> None:
        if not isinstance(self.payload, (Network, FourierModel)):
            raise KindMismatch(f"no model kind holds a {type(self.payload).__name__} payload")

    @property
    def kind(self) -> str:
        return KIND_ANN if isinstance(self.payload, Network) else KIND_FOURIER


def _affine_from_doc(doc) -> AffineMap:
    try:
        return AffineMap(*(json_float(doc[key], key) for key in ("lo", "hi", "out_lo", "out_hi")))
    except (KeyError, TypeError, DegenerateBounds) as exc:
        raise CorruptFile(f"bad affine map entry: {doc!r}") from exc


def save_model(path, model: CompensationModel) -> None:
    """Write a model file.  Floats serialize as shortest exact decimals, so a
    save/load round trip reproduces every parameter bit for bit."""
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "encoder_id": model.encoder_id,
    }
    if model.kind == KIND_ANN:
        net, j = model.payload, model.payload.n_hidden
        doc["shape"] = {"n_inputs": 1, "n_hidden": j, "n_outputs": 1}
        doc["input_norm"] = asdict(INPUT_NORM)
        doc["target_norm"] = asdict(TARGET_NORM)
        # the parameter blocks, in canonical order, under the last four payload keys
        blocks = np.split(net.params, [j, 2 * j, 3 * j])
        doc.update((key, b.tolist()) for key, b in zip(_PAYLOAD_KEYS[KIND_ANN][3:], blocks))
    else:
        doc.update(asdict(model.payload))
    write_json(path, doc)


def _float_list(doc, key, expected_len) -> list[float]:
    try:
        values = [json_float(v, key) for v in doc[key]]
    except (KeyError, TypeError) as exc:
        raise CorruptFile(f"missing or non-numeric {key!r}") from exc
    if len(values) != expected_len:
        raise CorruptFile(f"{key!r} has {len(values)} entries, expected {expected_len}")
    return values


def load_model(path) -> CompensationModel:
    """Read a model file, validating version, kind and payload shape."""
    doc = read_json(path, "model file")
    version = json_int(doc, "format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"unsupported format version {version}")

    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _PAYLOAD_KEYS:
        raise KindMismatch(f"unknown model kind {kind!r}")
    other_keys = [k for other, keys in _PAYLOAD_KEYS.items() if other != kind for k in keys]
    if any(k in doc for k in other_keys) and not all(k in doc for k in _PAYLOAD_KEYS[kind]):
        raise KindMismatch(f"kind {kind!r} but payload fields of the other kind")
    for key in doc:
        if key not in _HEADER_KEYS and key not in _PAYLOAD_KEYS[kind]:
            raise CorruptFile(f"unknown key {key!r} in a model file of kind {kind!r}")

    encoder_id = doc.get("encoder_id", "unknown")
    if not isinstance(encoder_id, str):
        raise CorruptFile(f"non-string 'encoder_id': {encoder_id!r}")

    if kind == KIND_ANN:
        shape = doc.get("shape")
        n_inputs, j, n_outputs = (json_int(shape, key)
                                  for key in ("n_inputs", "n_hidden", "n_outputs"))
        if n_inputs != 1 or n_outputs != 1 or j < 1:
            raise CorruptFile(f"bad shape: need a 1:J:1 network with J >= 1, got {shape!r}")
        w, theta, v, theta_out = (_float_list(doc, key, n) for key, n in
                                  zip(_PAYLOAD_KEYS[KIND_ANN][3:], (j, j, j, 1)))
        # bounds each hidden pre-activation (inputs lie in [0, 1)) and the
        # output sum (hidden activations lie in (0, 1)), as the Fourier check
        # bounds its partial sums, so the forward pass stays finite
        if not (all(math.isfinite(abs(a) + abs(b)) for a, b in zip(w, theta))
                and math.isfinite(sum(map(abs, v)) + abs(theta_out[0]))):
            raise CorruptFile(f"ann model {encoder_id!r}: the forward pass can overflow")
        for key, norm in (("input_norm", INPUT_NORM), ("target_norm", TARGET_NORM)):
            if _affine_from_doc(doc.get(key)) != norm:
                raise CorruptFile(f"ann model {encoder_id!r}: {key} must be {norm}")
        return CompensationModel(encoder_id, Network(w + theta + v + theta_out))

    terms = doc.get("terms")
    if not isinstance(terms, list):
        raise CorruptFile(f"fourier 'terms' must be a JSON list, got {terms!r}")
    try:
        a0 = json_float(doc["a0"], "a0")
        series = FourierModel(a0, tuple(
            FourierTerm(json_int(t, "n"), json_float(t["a"], "a"), json_float(t["b"], "b"))
            for t in terms
        ))
    # ValueError: BadOrders, for repeated orders or orders outside [1, 2**20]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"bad fourier payload: {exc}") from exc
    # bounds every partial sum of the series: `eval_fourier`'s cosines and
    # sines exceed 1 in size by less than 2**-20 (`fourier.MAX_ORDER`), so a
    # bound that stays finite with that margin keeps the correction finite at
    # every angle
    bound = abs(a0) + sum(abs(t.a) + abs(t.b) for t in series.terms)
    if not math.isfinite(bound * (1 + 2 ** -20)):
        raise CorruptFile(f"fourier model {encoder_id!r}: the series can overflow")
    return CompensationModel(encoder_id, series)


def predict_error(model: CompensationModel, theta_enc_deg) -> float | np.ndarray:
    """Model-predicted systematic error (arc-min) at an encoder angle in
    degrees (returns a float) or at a 1-D array of them (returns an array),
    wrapped into [0, 360) and passed to `forward_batch` or `eval_fourier` in one call."""
    theta = np.asarray(theta_enc_deg, dtype=float)
    if theta.ndim > 1:
        raise ShapeMismatch(f"need one angle or a 1-D batch of angles, got shape {theta.shape}")
    wrapped = wrap_deg(np.atleast_1d(theta))
    payload = model.payload
    if model.kind == KIND_ANN:
        out = forward_batch(payload, INPUT_NORM.normalize(wrapped)[:, np.newaxis])
        pred = TARGET_NORM.denormalize(out[:, 0])
    else:
        pred = eval_fourier(payload, wrapped)
    return float(pred[0]) if theta.ndim == 0 else pred


def correct(model: CompensationModel, theta_enc_deg) -> float | np.ndarray:
    """Corrected angle(s): measured minus predicted error, wrapped into
    [0, 360).  A float for one angle, an array for a 1-D array of them."""
    theta = np.asarray(theta_enc_deg, dtype=float)
    flat = np.atleast_1d(theta)
    corrected = wrap_deg(flat - predict_error(model, flat) / ARCMIN_PER_DEG)
    return float(corrected[0]) if theta.ndim == 0 else corrected


@dataclass(frozen=True)
class EvaluationReport:
    """Pre/post compensation statistics plus the per-angle residual table.

    `rows` is a read-only (P, 4) float64 array of (encoder_angle_deg,
    observed_arcmin, predicted_arcmin, residual_arcmin) rows with
    residual = predicted - observed.
    """

    pre_stats: ProfileStats
    post_stats: ProfileStats
    max_abs_residual_arcmin: float
    rows: np.ndarray


def evaluate(model: CompensationModel, test: CalibrationSet) -> EvaluationReport:
    """Residual error of the model against an observed calibration set."""
    profile = error_profile(test)
    angles, observed = profile.angles_deg(), profile.errors_arcmin()
    predicted = predict_error(model, angles)
    residuals = predicted - observed
    return EvaluationReport(
        pre_stats=stats(profile),
        post_stats=stats(ErrorProfile(np.stack((angles, residuals), axis=1))),
        max_abs_residual_arcmin=float(np.max(np.abs(residuals))),
        rows=readonly(np.stack((angles, observed, predicted, residuals), axis=1)),
    )


def __getattr__(name):
    # As in the package's `__getattr__`, the attribute is returned, not stored
    # here: a tracer that patches `experiment.run_experiment` must be seen by
    # the next lookup of `pipeline.run_experiment`.
    if name in _MOVED:
        return getattr(importlib.import_module(f".{_MOVED[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
