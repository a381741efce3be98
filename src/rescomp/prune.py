"""SVD-based hidden-layer redundancy analysis and pruning.

If two hidden nodes produce (nearly) the same activations for every
training pattern, one of them is redundant and the network can shrink
without losing accuracy.  Stacking the hidden-node activations over the
training set into a patterns-by-nodes matrix makes that redundancy
visible as small singular values; the count of singular values above a
relative threshold estimates the non-redundant width.  Pruning retrains
a fresh network at that width rather than surgically deleting columns,
which sidesteps any weight-transfer rule.

Note on the activation matrix: it holds the hidden-node *outputs* (after
the sigmoid).  The pre-sigmoid inputs are affine in the network input, so
for a single-input network their matrix has rank at most 2 regardless of
width; only the nonlinear outputs carry per-node information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, NonFiniteArray
from .network import Dataset, _hidden, _width, init_params, mse
from .optim import TrainingConfig, TrainingHistory

RANK_REL_TOL = 1e-3


def activation_matrix(params: np.ndarray, data: Dataset) -> np.ndarray:
    """Hidden-node outputs of a parameter vector for every pattern: (P, J) matrix."""
    return _hidden(params, data.design)


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values of the matrix, descending."""
    matrix = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise NonFiniteArray("matrix must be finite")
    return np.linalg.svd(matrix, compute_uv=False)


def effective_rank(spectrum: np.ndarray) -> int:
    """Count of singular values above RANK_REL_TOL * sigma_max (0 for a zero matrix)."""
    spectrum = np.asarray(spectrum, dtype=float)
    if len(spectrum) == 0 or spectrum[0] == 0.0:
        return 0
    return int(np.sum(spectrum > RANK_REL_TOL * spectrum[0]))


@dataclass(frozen=True)
class PruneReport:
    """What a prune found, in the order `prune_report.json` writes it."""

    initial_hidden: int
    pruned_hidden: int
    mse_initial: float
    mse_pruned: float
    spectrum_initial: tuple[float, ...]
    spectrum_pruned: tuple[float, ...]


def prune_and_retrain(
    params: np.ndarray,
    data: Dataset,
    cfg: TrainingConfig,
    *,
    train_fn,
) -> tuple[np.ndarray, TrainingHistory, PruneReport]:
    """Estimate the non-redundant width of the trained net `params` from its
    activation-matrix spectrum and retrain a fresh net at that width with
    `train_fn` (a trainer of `optim`, as `pipeline.fit_network` picks it).

    Returns the pruned net's parameter vector, the retraining's history and
    a report carrying both widths, both final MSEs and both spectra.
    """
    initial_hidden = _width(params)
    if initial_hidden < 2:
        raise BadConfig(f"pruning needs a net of width >= 2, got {initial_hidden}")
    spectrum_full = singular_values(activation_matrix(params, data))
    rank = max(effective_rank(spectrum_full), 1)

    trained_small, history = train_fn(init_params(rank, cfg.seed), data, cfg)
    spectrum_small = singular_values(activation_matrix(trained_small, data))

    report = PruneReport(
        initial_hidden=initial_hidden,
        pruned_hidden=rank,
        mse_initial=mse(params, data),
        mse_pruned=mse(trained_small, data),
        spectrum_initial=tuple(float(s) for s in spectrum_full),
        spectrum_pruned=tuple(float(s) for s in spectrum_small),
    )
    return trained_small, history, report
