"""Model persistence, angle correction, evaluation and experiment orchestration.

A compensation model (trained network or fitted Fourier series) is stored
as a versioned JSON weight file.  At run time one model call predicts the
systematic error at a batch of measured encoder angles, each corrected to

    corrected = measured - predicted_error / 60    (wrapped into [0, 360))

`run_experiment` drives the whole chain on one calibration set: partition
into even/odd grids, train the network, fit the Fourier baseline, evaluate
both on the held-out grid, and write a deterministic report bundle.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .caldata import (
    ARCMIN_PER_DEG,
    CalibrationSet,
    ErrorProfile,
    ProfileStats,
    error_profile,
    json_float,
    json_int,
    partition_even_odd,
    read_json,
    readonly,
    stats,
    wrap_deg,
    write_csv,
    write_json,
)
from .errors import (
    BadConfig,
    CorruptFile,
    DegenerateBounds,
    KindMismatch,
    ShapeMismatch,
    UnsupportedVersion,
)
from .fourier import (
    FourierModel,
    FourierTerm,
    HarmonicSpectrum,
    eval_fourier,
    fit_fourier,
    harmonic_spectrum,
    select_top,
)
from .network import (
    AffineMap,
    DEFAULT_TARGET_BOUNDS_ARCMIN,
    INPUT_NORM,
    TARGET_OUT_RANGE,
    Network,
    dataset_from_profile,
    forward_batch,
    init_params,
)
from .optim import TrainingConfig, TrainingHistory, trainer
from .prune import DEFAULT_RANK_REL_TOL, PruneReport, prune_and_retrain

FORMAT_VERSION = 1
KIND_ANN = "ann"
KIND_FOURIER = "fourier"
# the largest Fourier order a model file may hold: every integer up to 2**53 is
# an exact float64
MAX_FOURIER_ORDER = 2 ** 53

# The widest hidden layer a fit accepts: 25 times the paper's 80 nodes and
# 6 001 parameters against the 180 patterns of a 2-degree grid.  From J = 1 778
# a `network.forward_batch` chunk outgrows `network.CHUNK_ELEMENTS`: 9 rows with
# a one-row remainder, 144 KB at this width.  One LM Jacobian row is 48 KB.
MAX_HIDDEN = 2000


# the model-file keys that hold each model kind's payload
_PAYLOAD_KEYS = {
    KIND_ANN: ("shape", "input_norm", "target_norm", "hidden_weights",
               "hidden_thresholds", "output_weights", "output_thresholds"),
    KIND_FOURIER: ("a0", "terms"),
}


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
        doc["target_norm"] = asdict(net.target_norm)
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
        if _affine_from_doc(doc.get("input_norm")) != INPUT_NORM:
            raise CorruptFile(f"ann model {encoder_id!r}: input_norm must be {INPUT_NORM}")
        target_norm = _affine_from_doc(doc.get("target_norm"))
        if (target_norm.out_lo, target_norm.out_hi) != TARGET_OUT_RANGE:
            raise CorruptFile(f"ann model {encoder_id!r}: target_norm must map onto "
                              f"{TARGET_OUT_RANGE}")
        # the net's outputs lie in (0, 1), so a map finite at both ends is finite inside
        with np.errstate(over="ignore"):
            ends = target_norm.denormalize([0.0, 1.0])
        if not np.all(np.isfinite(ends)):
            raise CorruptFile(f"ann model {encoder_id!r}: target_norm maps past the float range")
        return CompensationModel(encoder_id, Network(w + theta + v + theta_out, target_norm))

    try:
        a0 = json_float(doc["a0"], "a0")
        series = FourierModel(a0, tuple(
            FourierTerm(json_int(t, "n"), json_float(t["a"], "a"), json_float(t["b"], "b"))
            for t in doc["terms"]
        ))
    # ValueError: BadOrders, for repeated or non-positive orders
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"bad fourier payload: {exc}") from exc
    for i, t in enumerate(series.terms):
        if t.n > MAX_FOURIER_ORDER:  # eval_fourier takes orders as floats
            raise CorruptFile(f"fourier term {i}: order n is above 2**53")
    # bounds every partial sum of the series, so a finite bound keeps the
    # correction finite at every angle
    if not math.isfinite(abs(a0) + sum(abs(t.a) + abs(t.b) for t in series.terms)):
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
        pred = payload.target_norm.denormalize(out[:, 0])
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


# ---------------------------------------------------------------------------
# Experiment orchestration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    hidden: int = 80
    optimizer: str = "lm"            # "lm" | "backprop"
    top_orders: int = 10
    prune: bool = False
    prune_rel_tol: float = DEFAULT_RANK_REL_TOL
    norm_bounds: tuple[float, float] = DEFAULT_TARGET_BOUNDS_ARCMIN
    training: TrainingConfig = TrainingConfig()

    def __post_init__(self) -> None:
        trainer(self.optimizer)  # BadConfig for an unknown optimizer name
        if self.hidden < 1:
            raise BadConfig("hidden must be >= 1")
        if self.hidden > MAX_HIDDEN:
            raise BadConfig(f"hidden must be <= {MAX_HIDDEN}, got {self.hidden!r}")
        if self.top_orders < 0:
            raise BadConfig(f"top_orders must be >= 0, got {self.top_orders!r}")
        if self.prune and self.hidden < 2:
            raise BadConfig("pruning needs hidden >= 2")
        if not 0.0 < self.prune_rel_tol < 1.0:
            raise BadConfig(f"prune_rel_tol must be in (0, 1), got {self.prune_rel_tol!r}")


@dataclass(frozen=True)
class ExperimentResult:
    ann_model: CompensationModel
    fourier_model: CompensationModel
    ann_report: EvaluationReport
    fourier_report: EvaluationReport
    history: TrainingHistory
    prune_report: PruneReport | None
    pre_full_stats: ProfileStats
    files: tuple[str, ...]


def write_spectrum_csv(path, spectrum: HarmonicSpectrum) -> None:
    write_csv(path, "order,amplitude_arcmin",
              ((e.order, e.amplitude_arcmin) for e in spectrum.entries))


def write_history_csv(path, history: TrainingHistory) -> None:
    write_csv(path, "iteration,mse", enumerate(history.mse_per_iteration, start=1))


def write_residuals_csv(path, report: EvaluationReport) -> None:
    write_csv(path, "encoder_angle_deg,observed_arcmin,predicted_arcmin,residual_arcmin",
              report.rows.tolist())


def fit_network(
    profile: ErrorProfile, cfg: ExperimentConfig
) -> tuple[Network, TrainingHistory, PruneReport | None]:
    """Train the 1:J:1 net on an error profile as `cfg` says and, with
    `cfg.prune`, prune the trained net and retrain it at the pruned width.
    Returns the net, the history of its training and the prune report (None
    without pruning).  The one place a fit's target map is decided, from
    `cfg.norm_bounds`, and the one place the wide net is drawn."""
    target_norm = AffineMap(*cfg.norm_bounds, *TARGET_OUT_RANGE)
    data = dataset_from_profile(profile, target_norm)
    train_fn = trainer(cfg.optimizer)
    params, history = train_fn(init_params(cfg.hidden, cfg.training.seed), data, cfg.training)
    report = None
    if cfg.prune:
        params, history, report = prune_and_retrain(params, data, cfg.training,
                                                    rel_tol=cfg.prune_rel_tol, train_fn=train_fn)
    return Network(params, target_norm), history, report


def fit_fourier_baseline(
    profile: ErrorProfile, top: int
) -> tuple[FourierModel, HarmonicSpectrum, list[int]]:
    """Fit the Fourier series on the `top` strongest harmonics of a profile.
    Returns the model, the spectrum (every order) and the fitted orders.

    The Nyquist order P/2 of a profile of an even count P is never selected:
    its sine column is zero on an exact grid and badly conditioned on a
    jittered one.  BadConfig names `top` and the largest value the profile
    can fit: every order but 0 (the DC term, always fitted) adds two
    coefficients, and a profile of P samples fits at most P of them."""
    spectrum = harmonic_spectrum(profile)
    p = len(profile)
    candidates = HarmonicSpectrum(tuple(e for e in spectrum.entries if 2 * e.order != p))
    coefficients = 1 + 2 * np.cumsum([e.order != 0 for e in candidates.entries])
    limit = int(np.searchsorted(coefficients, p, side="right"))
    if not 0 <= top <= limit:
        raise BadConfig(f"top must be in [0, {limit}] for a profile of {p} "
                        f"samples, got {top}")
    orders = select_top(candidates, top)
    return fit_fourier(profile, orders), spectrum, orders


def run_experiment(
    cal: CalibrationSet, outdir, cfg: ExperimentConfig = ExperimentConfig()
) -> ExperimentResult:
    """End-to-end run on one calibration set; writes a deterministic report
    bundle (models, history, spectrum, residual tables, comparison CSV and
    a JSON report) into `outdir`, which is made only once every fit and
    evaluation has succeeded."""
    # comparison.csv holds the encoder id as one field of UTF-8 text: no comma,
    # no line break and no lone surrogate (what argv bytes not in UTF-8 decode to)
    if not re.fullmatch("[^,\r\n\ud800-\udfff]*", cal.encoder_id):
        raise BadConfig(f"encoder id {cal.encoder_id!r} is not one CSV field of UTF-8 text")
    train_set, test_set = partition_even_odd(cal)
    train_prof = error_profile(train_set)
    full_stats = stats(error_profile(cal))

    # the Fourier fit takes milliseconds and fails on a `top_orders` too large
    # for the profile: it runs first, so that such a run stops before training
    series, spectrum, orders = fit_fourier_baseline(train_prof, cfg.top_orders)
    trained, history, prune_report = fit_network(train_prof, cfg)
    ann_model = CompensationModel(cal.encoder_id, trained)
    fourier_model = CompensationModel(cal.encoder_id, series)
    ann_report = evaluate(ann_model, test_set)
    fourier_report = evaluate(fourier_model, test_set)

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_model(outdir / "ann_model.json", ann_model)
    save_model(outdir / "fourier_model.json", fourier_model)
    write_history_csv(outdir / "history.csv", history)
    write_residuals_csv(outdir / "residuals_ann.csv", ann_report)
    write_residuals_csv(outdir / "residuals_fourier.csv", fourier_report)
    write_spectrum_csv(outdir / "spectrum.csv", spectrum)
    write_csv(outdir / "comparison.csv",
              "encoder_id,pre_mae_arcmin,pre_rms_arcmin,fourier_mae_arcmin,fourier_rms_arcmin,"
              "ann_mae_arcmin,ann_rms_arcmin",
              [(cal.encoder_id, full_stats.mae_arcmin, full_stats.rms_arcmin,
                fourier_report.post_stats.mae_arcmin, fourier_report.post_stats.rms_arcmin,
                ann_report.post_stats.mae_arcmin, ann_report.post_stats.rms_arcmin)])
    # `ExperimentConfig`'s fields in declared order, `training`'s fields in its place
    config = asdict(cfg)
    config.update(config.pop("training"))
    doc = {
        "encoder_id": cal.encoder_id,
        "epoch": cal.epoch,
        "config": config,
        "n_train": len(train_set),
        "n_test": len(test_set),
        "pre_full": asdict(full_stats),
        "pre_test": asdict(ann_report.pre_stats),
        "ann": {
            "post": asdict(ann_report.post_stats),
            "max_abs_residual_arcmin": ann_report.max_abs_residual_arcmin,
            "iterations_run": history.iterations_run,
            "stop_reason": history.stop_reason.value,
            "final_mse": history.mse_per_iteration[-1],
        },
        "fourier": {
            "post": asdict(fourier_report.post_stats),
            "max_abs_residual_arcmin": fourier_report.max_abs_residual_arcmin,
            "orders": orders,
        },
    }
    files = ("ann_model.json", "fourier_model.json", "history.csv", "residuals_ann.csv",
             "residuals_fourier.csv", "spectrum.csv", "comparison.csv", "report.json")
    if prune_report is not None:
        doc["prune"] = asdict(prune_report)
        write_json(outdir / "prune_report.json", doc["prune"])
        files += ("prune_report.json",)
    write_json(outdir / "report.json", doc)

    return ExperimentResult(
        ann_model=ann_model,
        fourier_model=fourier_model,
        ann_report=ann_report,
        fourier_report=fourier_report,
        history=history,
        prune_report=prune_report,
        pre_full_stats=full_stats,
        files=files,
    )
