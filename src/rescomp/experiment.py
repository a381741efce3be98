"""Experiment orchestration: the fits, and the report bundle of one run.

`fit_network` trains the 1:J:1 net (and prunes it, if asked) and
`fit_fourier_baseline` fits the Fourier series, as the command line, the
experiment scripts and `run_experiment` all run them.  `run_experiment`
drives the whole chain on one calibration set: partition into even/odd
grids, train the network, fit the Fourier baseline, evaluate both on the
held-out grid, and write a deterministic report bundle.  A process that
only corrects angles never loads this module (see `pipeline`).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .caldata import (
    CalibrationSet,
    ErrorProfile,
    ProfileStats,
    error_profile,
    partition_even_odd,
    stats,
    write_csv,
    write_json,
)
from .config import ExperimentConfig
from .errors import BadConfig
from .fourier import FourierModel, SpectrumEntry, fit_fourier, harmonic_spectrum, select_top
from .network import Network, dataset_from_profile, init_params
from .optim import TrainingHistory, trainer
from .pipeline import CompensationModel, EvaluationReport, evaluate, save_model
from .prune import PruneReport, prune_and_retrain


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


def write_spectrum_csv(path, spectrum: tuple[SpectrumEntry, ...]) -> None:
    write_csv(path, "order,amplitude_arcmin", ((e.order, e.amplitude_arcmin) for e in spectrum))


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
    without pruning).  The one place the wide net is drawn."""
    data = dataset_from_profile(profile)
    train_fn = trainer(cfg.optimizer)
    params, history = train_fn(init_params(cfg.hidden, cfg.training.seed), data, cfg.training)
    report = None
    if cfg.prune:
        params, history, report = prune_and_retrain(params, data, cfg.training, train_fn=train_fn)
    return Network(params), history, report


def fit_fourier_baseline(
    profile: ErrorProfile, top: int
) -> tuple[FourierModel, tuple[SpectrumEntry, ...], list[int]]:
    """Fit the Fourier series on the `top` strongest harmonics of a profile.
    Returns the model, the spectrum (every order) and the fitted orders.

    The Nyquist order P/2 of a profile of an even count P is never selected:
    its sine column is zero on an exact grid and badly conditioned on a
    jittered one.  BadConfig names `top` and its largest value, the count of
    orders below P/2 (0, the DC term, included): every order but 0 adds two
    coefficients, so all of them take P - 1 coefficients for an even P and P
    for an odd one, never more than the P samples."""
    spectrum = harmonic_spectrum(profile)
    p = len(profile)
    candidates = tuple(e for e in spectrum if 2 * e.order != p)
    limit = len(candidates)
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
