"""Encoder error-profile learning and compensation.

Learns the systematic error of a rotary encoder from rotary-table
calibration data, either with a single-hidden-layer sigmoid network
(gradient-descent or Levenberg-Marquardt training, optional SVD-based
width pruning) or with a truncated Fourier series, and applies the
learned correction to measured angles.
"""

from .caldata import (
    CalibrationSet,
    ErrorProfile,
    ProfileStats,
    error_profile,
    load_calibration,
    partition_even_odd,
    save_calibration,
    stats,
)
from .errors import RescompError
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
    Dataset,
    Network,
    dataset_from_profile,
    forward_batch,
    gradient,
    init_params,
    mse,
    residual_jacobian,
)
from .optim import (
    StopReason,
    TrainingConfig,
    TrainingHistory,
    stopping_rule,
    train_backprop,
    train_lm,
)
from .pipeline import (
    CompensationModel,
    EvaluationReport,
    ExperimentConfig,
    ExperimentResult,
    correct,
    evaluate,
    load_model,
    predict_error,
    run_experiment,
    save_model,
)
from .prune import (
    PruneReport,
    activation_matrix,
    effective_rank,
    prune_and_retrain,
    singular_values,
)
from .simgen import (
    HarmonicSpec,
    HarmonicTerm,
    archetype_spec,
    harmonic_error_arcmin,
    quantize16,
    spec_from_json,
    spec_to_json,
    synthesize,
)

__version__ = "0.1.0"
