"""Encoder error-profile learning and compensation.

Learns the systematic error of a rotary encoder from rotary-table
calibration data, either with a single-hidden-layer sigmoid network
(gradient-descent or Levenberg-Marquardt training, optional SVD-based
width pruning) or with a truncated Fourier series, and applies the
learned correction to measured angles.

Every name in `__all__` loads on first use: `import rescomp` imports no
submodule, and `rescomp.X` or `from rescomp import X` imports only the
submodule that defines X (and what that submodule imports).  The
submodules themselves, such as `rescomp.simgen`, load the same way.
"""

import importlib

__version__ = "0.1.0"

# exported names by the submodule that defines them
_EXPORTS = {
    "caldata": (
        "CalibrationSet",
        "ErrorProfile",
        "ProfileStats",
        "error_profile",
        "load_calibration",
        "partition_even_odd",
        "save_calibration",
        "stats",
    ),
    "config": ("ExperimentConfig", "TrainingConfig"),
    "errors": ("RescompError",),
    "experiment": ("ExperimentResult", "run_experiment"),
    "fourier": (
        "FourierModel",
        "FourierTerm",
        "SpectrumEntry",
        "eval_fourier",
        "fit_fourier",
        "harmonic_spectrum",
        "select_top",
    ),
    "network": (
        "AffineMap",
        "Dataset",
        "Network",
        "dataset_from_profile",
        "forward_batch",
        "gradient",
        "init_params",
        "mse",
        "residual_jacobian",
    ),
    "optim": (
        "StopReason",
        "TrainingHistory",
        "stopping_rule",
        "train_backprop",
        "train_lm",
    ),
    "pipeline": (
        "CompensationModel",
        "EvaluationReport",
        "correct",
        "evaluate",
        "load_model",
        "predict_error",
        "save_model",
    ),
    "prune": (
        "PruneReport",
        "activation_matrix",
        "effective_rank",
        "prune_and_retrain",
        "singular_values",
    ),
    "simgen": (
        "HarmonicSpec",
        "HarmonicTerm",
        "archetype_spec",
        "harmonic_error_arcmin",
        "quantize16",
        "spec_from_json",
        "spec_to_json",
        "synthesize",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    # The attribute is returned, not stored here: a tracer or test that
    # patches `rescomp.optim.train_lm` must be seen by the next lookup.
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
