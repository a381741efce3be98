"""Model persistence, angle correction, evaluation and experiment orchestration.

A compensation model (trained network or fitted Fourier series) is stored
as a versioned JSON weight file.  At run time the model predicts the
systematic error at a measured encoder angle and the corrected angle is

    corrected = measured - predicted_error / 60    (wrapped into [0, 360))

`run_experiment` drives the whole chain on one calibration set: partition
into even/odd grids, train the network, fit the Fourier baseline, evaluate
both on the held-out grid, and write a deterministic report bundle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .caldata import (
    ARCMIN_PER_DEG,
    CalibrationSet,
    ErrorProfile,
    ProfileStats,
    error_profile,
    json_int,
    partition_even_odd,
    stats,
    write_json,
)
from .errors import (
    CorruptFile,
    DegenerateBounds,
    KindMismatch,
    OutOfRange,
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
    Network,
    NetworkShape,
    dataset_from_profile,
    forward_batch,
    init_network,
)
from .optim import TrainingConfig, TrainingHistory, trainer
from .prune import DEFAULT_RANK_REL_TOL, PruneReport, prune_and_retrain

FORMAT_VERSION = 1
KIND_ANN = "ann"
KIND_FOURIER = "fourier"
# the largest Fourier order a model file may hold: every integer up to 2**53 is
# an exact float64
MAX_FOURIER_ORDER = 2 ** 53

_ANN_KEYS = ("shape", "input_norm", "target_norm", "hidden_weights",
             "hidden_thresholds", "output_weights", "output_thresholds")
_FOURIER_KEYS = ("a0", "terms")


@dataclass(frozen=True)
class CompensationModel:
    """Tagged, versioned compensation artifact: a Network or a FourierModel."""

    kind: str
    encoder_id: str
    payload: Network | FourierModel
    format_version: int = FORMAT_VERSION

    def __post_init__(self) -> None:
        if self.format_version != FORMAT_VERSION:
            raise UnsupportedVersion(f"unsupported format version {self.format_version!r}")
        if self.kind == KIND_ANN:
            if not isinstance(self.payload, Network):
                raise KindMismatch(f"kind {self.kind!r} with payload {type(self.payload).__name__}")
        elif self.kind == KIND_FOURIER:
            if not isinstance(self.payload, FourierModel):
                raise KindMismatch(f"kind {self.kind!r} with payload {type(self.payload).__name__}")
        else:
            raise KindMismatch(f"unknown model kind {self.kind!r}")


def _affine_to_doc(m: AffineMap) -> dict:
    return {"lo": m.lo, "hi": m.hi, "out_lo": m.out_lo, "out_hi": m.out_hi}


def _affine_from_doc(doc) -> AffineMap:
    try:
        return AffineMap(float(doc["lo"]), float(doc["hi"]),
                         float(doc["out_lo"]), float(doc["out_hi"]))
    except (KeyError, TypeError, ValueError, OverflowError, DegenerateBounds) as exc:
        raise CorruptFile(f"bad affine map entry: {doc!r}") from exc


def save_model(path, model: CompensationModel) -> None:
    """Write a model file.  Floats serialize as shortest exact decimals, so a
    save/load round trip reproduces every parameter bit for bit."""
    doc: dict = {
        "format_version": model.format_version,
        "kind": model.kind,
        "encoder_id": model.encoder_id,
    }
    if model.kind == KIND_ANN:
        net = model.payload
        doc["shape"] = {
            "n_inputs": net.shape.n_inputs,
            "n_hidden": net.shape.n_hidden,
            "n_outputs": net.shape.n_outputs,
        }
        doc["input_norm"] = _affine_to_doc(net.input_norm)
        doc["target_norm"] = _affine_to_doc(net.target_norm)
        doc["hidden_weights"] = net.w_hidden.tolist()
        doc["hidden_thresholds"] = net.theta_hidden.tolist()
        doc["output_weights"] = net.w_output.tolist()
        doc["output_thresholds"] = net.theta_output.tolist()
    else:
        fm = model.payload
        doc["a0"] = fm.a0
        doc["terms"] = [{"n": t.n, "a": t.a, "b": t.b} for t in fm.terms]
    write_json(path, doc)


def _float_list(doc, key, expected_len) -> list[float]:
    try:
        values = [float(v) for v in doc[key]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptFile(f"missing or non-numeric {key!r}") from exc
    if len(values) != expected_len:
        raise CorruptFile(f"{key!r} has {len(values)} entries, expected {expected_len}")
    if not all(math.isfinite(v) for v in values):
        raise CorruptFile(f"{key!r} contains non-finite values")
    return values


def load_model(path) -> CompensationModel:
    """Read a model file, validating version, kind and payload shape."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError: bad JSON, bad UTF-8 or an integer past Python's digit limit;
    # RecursionError: arrays or objects nested too deep to decode
    except (ValueError, RecursionError) as exc:
        raise CorruptFile(f"not a valid model file: {exc}") from exc
    if not isinstance(doc, dict):
        raise CorruptFile("model file must hold a JSON object")

    version = json_int(doc, "format_version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"unsupported format version {version}")

    kind = doc.get("kind")
    if kind not in (KIND_ANN, KIND_FOURIER):
        raise KindMismatch(f"unknown model kind {kind!r}")
    other_keys = _FOURIER_KEYS if kind == KIND_ANN else _ANN_KEYS
    own_keys = _ANN_KEYS if kind == KIND_ANN else _FOURIER_KEYS
    if any(k in doc for k in other_keys) and not all(k in doc for k in own_keys):
        raise KindMismatch(f"kind {kind!r} but payload fields of the other kind")

    encoder_id = str(doc.get("encoder_id", "unknown"))

    if kind == KIND_ANN:
        try:
            shape = NetworkShape(*(json_int(doc.get("shape"), key)
                                   for key in ("n_inputs", "n_hidden", "n_outputs")))
        except ShapeMismatch as exc:
            raise CorruptFile(f"bad or missing shape: {exc}") from exc
        j = shape.n_hidden
        params = (_float_list(doc, "hidden_weights", j) + _float_list(doc, "hidden_thresholds", j)
                  + _float_list(doc, "output_weights", j)
                  + _float_list(doc, "output_thresholds", 1))
        net = Network(shape, params, _affine_from_doc(doc.get("input_norm")),
                      _affine_from_doc(doc.get("target_norm")))
        return CompensationModel(KIND_ANN, encoder_id, net, version)

    try:
        a0 = float(doc["a0"])
        series = FourierModel(a0, tuple(
            FourierTerm(json_int(t, "n"), float(t["a"]), float(t["b"])) for t in doc["terms"]
        ))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptFile(f"bad fourier payload: {exc}") from exc
    if not math.isfinite(a0) or not all(
        math.isfinite(t.a) and math.isfinite(t.b) for t in series.terms
    ):
        raise CorruptFile("fourier coefficients must be finite")
    for i, t in enumerate(series.terms):
        if t.n > MAX_FOURIER_ORDER:  # eval_fourier takes orders as floats
            raise CorruptFile(f"fourier term {i}: order n is above 2**53")
    return CompensationModel(KIND_FOURIER, encoder_id, series, version)


def _wrap_deg(theta: np.ndarray) -> np.ndarray:
    """`caldata.wrap_angle_deg` on every element of a 1-D array, with the same
    fmod arithmetic; OutOfRange names the first non-finite value."""
    finite = np.isfinite(theta)
    if not finite.all():
        raise OutOfRange(f"angle {float(theta[~finite][0])!r} is not finite")
    wrapped = np.fmod(theta, 360.0)
    wrapped[wrapped < 0.0] += 360.0
    # fmod can return -eps, which rounds up to 360.0 after +=
    wrapped[wrapped >= 360.0] -= 360.0
    return wrapped


def predict_error(model: CompensationModel, theta_enc_deg) -> float | np.ndarray:
    """Model-predicted systematic error (arc-min) at an encoder angle in
    degrees (returns a float) or at a 1-D array of them (returns an array)."""
    theta = np.asarray(theta_enc_deg, dtype=float)
    wrapped = _wrap_deg(np.atleast_1d(theta))
    if model.kind == KIND_ANN:
        net = model.payload
        x = net.input_norm.normalize(wrapped)[:, np.newaxis]
        pred = net.target_norm.denormalize(forward_batch(net, x)[:, 0])
    else:
        pred = eval_fourier(model.payload, wrapped)
    return float(pred[0]) if theta.ndim == 0 else pred


def correct(model: CompensationModel, theta_enc_deg) -> float | np.ndarray:
    """Corrected angle(s): measured minus predicted error, wrapped into
    [0, 360).  A float for one angle, an array for a 1-D array of them."""
    theta = np.asarray(theta_enc_deg, dtype=float)
    flat = np.atleast_1d(theta)
    corrected = _wrap_deg(flat - predict_error(model, flat) / ARCMIN_PER_DEG)
    return float(corrected[0]) if theta.ndim == 0 else corrected


@dataclass(frozen=True)
class EvaluationReport:
    """Pre/post compensation statistics plus the per-angle residual table.

    Table rows: (encoder_angle_deg, observed_arcmin, predicted_arcmin,
    residual_arcmin) with residual = predicted - observed.
    """

    pre_stats: ProfileStats
    post_stats: ProfileStats
    max_abs_residual_arcmin: float
    rows: tuple[tuple[float, float, float, float], ...]


def evaluate(model: CompensationModel, test: CalibrationSet) -> EvaluationReport:
    """Residual error of the model against an observed calibration set."""
    profile = error_profile(test)
    angles = np.array(profile.angles_deg())
    observed = np.array(profile.errors_arcmin())
    predicted = predict_error(model, angles)
    residuals = predicted - observed
    rows = tuple(
        (float(a), float(o), float(p), float(r))
        for a, o, p, r in zip(angles, observed, predicted, residuals)
    )
    post = stats(ErrorProfile(tuple((a, r) for a, _o, _p, r in rows)))
    return EvaluationReport(
        pre_stats=stats(profile),
        post_stats=post,
        max_abs_residual_arcmin=float(np.max(np.abs(residuals))),
        rows=rows,
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
    training: TrainingConfig = TrainingConfig(seed=42)

    def __post_init__(self) -> None:
        trainer(self.optimizer)  # ValueError for an unknown optimizer name
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if self.prune and self.hidden < 2:
            raise ValueError("pruning needs hidden >= 2")
        if not 0.0 < self.prune_rel_tol < 1.0:
            raise ValueError(f"prune_rel_tol must be in (0, 1), got {self.prune_rel_tol!r}")


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


def stats_doc(s: ProfileStats) -> dict:
    return {
        "mae_arcmin": s.mae_arcmin,
        "rms_arcmin": s.rms_arcmin,
        "min_arcmin": s.min_arcmin,
        "max_arcmin": s.max_arcmin,
        "n_samples": s.n_samples,
    }


def prune_doc(report: PruneReport) -> dict:
    return {
        "initial_hidden": report.initial_hidden,
        "pruned_hidden": report.pruned_hidden,
        "mse_initial": report.mse_initial,
        "mse_pruned": report.mse_pruned,
        "spectrum_initial": list(report.spectrum_initial),
        "spectrum_pruned": list(report.spectrum_pruned),
    }


def write_spectrum_csv(path, spectrum: HarmonicSpectrum) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("order,amplitude_arcmin\n")
        for e in spectrum.entries:
            fh.write(f"{e.order},{e.amplitude_arcmin!r}\n")


def write_history_csv(path, history: TrainingHistory) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("iteration,mse\n")
        for i, m in enumerate(history.mse_per_iteration, start=1):
            fh.write(f"{i},{m!r}\n")


def write_residuals_csv(path, report: EvaluationReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("encoder_angle_deg,observed_arcmin,predicted_arcmin,residual_arcmin\n")
        for angle, obs, pred, res in report.rows:
            fh.write(f"{angle!r},{obs!r},{pred!r},{res!r}\n")


def fit_network(
    profile: ErrorProfile, cfg: ExperimentConfig
) -> tuple[Network, TrainingHistory, PruneReport | None]:
    """Train the 1:J:1 net on an error profile as `cfg` says: one training
    run, or with `cfg.prune` train, prune and retrain.  Returns the net, the
    history of its training and the prune report (None without pruning)."""
    net0 = init_network(NetworkShape(1, cfg.hidden, 1), cfg.training.seed, cfg.norm_bounds)
    data = dataset_from_profile(profile, net0)
    train_fn = trainer(cfg.optimizer)
    if not cfg.prune:
        return (*train_fn(net0, data, cfg.training), None)
    net, report = prune_and_retrain(
        data, cfg.hidden, cfg.training,
        rel_tol=cfg.prune_rel_tol, norm_bounds=cfg.norm_bounds, train_fn=train_fn,
    )
    return net, report.history_pruned, report


def fit_fourier_baseline(
    profile: ErrorProfile, top: int
) -> tuple[FourierModel, HarmonicSpectrum, list[int]]:
    """Fit the Fourier series on the `top` strongest harmonics of a profile
    (all of them if it has fewer).  Returns the model, the spectrum and the
    fitted orders."""
    spectrum = harmonic_spectrum(profile)
    orders = select_top(spectrum, min(top, len(spectrum)))
    return fit_fourier(profile, orders), spectrum, orders


def run_experiment(
    cal: CalibrationSet, outdir, cfg: ExperimentConfig = ExperimentConfig()
) -> ExperimentResult:
    """End-to-end run on one calibration set; writes a deterministic report
    bundle (models, history, spectrum, residual tables, comparison CSV and
    a JSON report) into `outdir`."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    train_set, test_set = partition_even_odd(cal)
    train_prof = error_profile(train_set)
    full_stats = stats(error_profile(cal))

    trained, history, prune_report = fit_network(train_prof, cfg)
    series, spectrum, orders = fit_fourier_baseline(train_prof, cfg.top_orders)
    ann_model = CompensationModel(KIND_ANN, cal.encoder_id, trained)
    fourier_model = CompensationModel(KIND_FOURIER, cal.encoder_id, series)
    ann_report = evaluate(ann_model, test_set)
    fourier_report = evaluate(fourier_model, test_set)

    save_model(outdir / "ann_model.json", ann_model)
    save_model(outdir / "fourier_model.json", fourier_model)
    write_history_csv(outdir / "history.csv", history)
    write_residuals_csv(outdir / "residuals_ann.csv", ann_report)
    write_residuals_csv(outdir / "residuals_fourier.csv", fourier_report)
    write_spectrum_csv(outdir / "spectrum.csv", spectrum)
    with open(outdir / "comparison.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            "encoder_id,pre_mae_arcmin,pre_rms_arcmin,"
            "fourier_mae_arcmin,fourier_rms_arcmin,"
            "ann_mae_arcmin,ann_rms_arcmin\n"
        )
        fh.write(
            f"{cal.encoder_id},"
            f"{full_stats.mae_arcmin!r},{full_stats.rms_arcmin!r},"
            f"{fourier_report.post_stats.mae_arcmin!r},"
            f"{fourier_report.post_stats.rms_arcmin!r},"
            f"{ann_report.post_stats.mae_arcmin!r},"
            f"{ann_report.post_stats.rms_arcmin!r}\n"
        )
    doc = {
        "encoder_id": cal.encoder_id,
        "epoch": cal.epoch,
        "config": {
            "hidden": cfg.hidden,
            "optimizer": cfg.optimizer,
            "top_orders": cfg.top_orders,
            "prune": cfg.prune,
            "prune_rel_tol": cfg.prune_rel_tol,
            "norm_bounds": list(cfg.norm_bounds),
            "max_iterations": cfg.training.max_iterations,
            "seed": cfg.training.seed,
        },
        "n_train": len(train_set),
        "n_test": len(test_set),
        "pre_full": stats_doc(full_stats),
        "pre_test": stats_doc(ann_report.pre_stats),
        "ann": {
            "post": stats_doc(ann_report.post_stats),
            "max_abs_residual_arcmin": ann_report.max_abs_residual_arcmin,
            "iterations_run": history.iterations_run,
            "stop_reason": history.stop_reason.value,
            "final_mse": history.mse_per_iteration[-1],
        },
        "fourier": {
            "post": stats_doc(fourier_report.post_stats),
            "max_abs_residual_arcmin": fourier_report.max_abs_residual_arcmin,
            "orders": orders,
        },
    }
    files = ("ann_model.json", "fourier_model.json", "history.csv", "residuals_ann.csv",
             "residuals_fourier.csv", "spectrum.csv", "comparison.csv", "report.json")
    if prune_report is not None:
        doc["prune"] = prune_doc(prune_report)
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
