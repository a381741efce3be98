"""Training loop: full-batch gradient descent and Levenberg-Marquardt.

Both optimizers run one full-batch loop (pattern counts here are tiny) and
differ only in the step it takes; the loop records the MSE once per
iteration and stops either at the iteration budget or when
the relative MSE improvement over a trailing window drops below a
threshold ("stops decreasing").  Levenberg-Marquardt takes the step
d = (J^T J + lambda I)^-1 J^T r each iteration: from the n x n damped
normal equations when the n parameters are at most the P patterns, from
the P x P system (J J^T + lambda I) x = r, d = J^T x, when they outnumber
them (the paper's 1:80:1 net: n = 241, P = 180).  It only accepts steps
that strictly lower the MSE, so its recorded MSE sequence is
non-increasing.

Trainers take and return bare parameter vectors: `(params, data, cfg) ->
(params, history)`.  The loop's state is the vector, its MSE and its
activations, and the normalization maps never enter it; the caller that
built `data` pairs the returned vector with its maps.  Each candidate
vector is checked to be finite once, and its forward pass runs once: the
activations that score it are carried, once it is accepted, into the next
iteration's gradient or Jacobian.  Training is deterministic: identical
inputs give bit-identical histories.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadConfig, DivergenceDetected, SingularNormalEquations
from .network import (
    Activations,
    Dataset,
    _activations,
    gradient,
    mse,
    residual_jacobian,
)

# Marquardt's (1963) schedule: start at lambda0, divide by the factor after an
# accepted step, multiply by it after a rejected one.
_LAMBDA0 = 1e-3
_LAMBDA_FACTOR = 10.0
# Floor keeps the damping alive after long runs of accepted steps.
_LAMBDA_MIN = 1e-15
# Rejected-step retries per iteration before giving up.
_MAX_ESCALATIONS = 30
# The relative MSE cut below which a `stall_window` of iterations stops training.
_STALL_TOL = 0.1


@dataclass(frozen=True)
class TrainingConfig:
    max_iterations: int = 10000
    learning_rate: float = 0.5        # gradient descent only
    # stop once `stall_window` iterations cut the MSE by less than `_STALL_TOL`
    # (relative); a window at or above max_iterations never fires
    stall_window: int = 200
    seed: int = 42

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise BadConfig("max_iterations must be >= 1")
        if not math.isfinite(self.learning_rate):
            raise BadConfig("learning_rate must be finite")
        if self.learning_rate <= 0:
            raise BadConfig("learning_rate must be > 0")
        if self.stall_window < 1:
            raise BadConfig("stall_window must be >= 1")
        if self.seed < 0:
            raise BadConfig(f"seed must be >= 0, got {self.seed!r}")


class StopReason(enum.Enum):
    MAX_ITERATIONS = "max_iterations"
    STALLED = "stalled"


@dataclass(frozen=True)
class TrainingHistory:
    mse_per_iteration: tuple[float, ...]
    stop_reason: StopReason

    @property
    def iterations_run(self) -> int:
        return len(self.mse_per_iteration)


def stopping_rule(mse_history, cfg: TrainingConfig) -> bool:
    """True once the trailing `stall_window` iterations improved the MSE
    by less than `_STALL_TOL` (relative)."""
    window = cfg.stall_window
    if len(mse_history) < window:
        return False
    old = mse_history[-window]
    new = mse_history[-1]
    if old == 0.0:
        return True
    return (old - new) / abs(old) < _STALL_TOL


def _scored(params: np.ndarray, data: Dataset) -> tuple[float, Activations]:
    """The MSE of `params` on `data` and the activations it was computed from."""
    activations = _activations(params, data.design)
    return mse(params, data, activations), activations


def _train(
    params: np.ndarray, data: Dataset, cfg: TrainingConfig, step
) -> tuple[np.ndarray, TrainingHistory]:
    """The loop both optimizers share.

    `step(params, current_mse, activations)`, given the current parameter
    vector's MSE and activations on `data`, returns the next
    `(params, mse, activations)`, or None when no step lowers the MSE,
    which stops training as stalled.  Returns the best-MSE vector seen and
    the per-iteration MSE history.
    """
    current_mse, activations = _scored(params, data)
    if not np.isfinite(current_mse):
        raise DivergenceDetected(f"initial MSE is {current_mse!r}")
    best, best_mse = params, current_mse
    history: list[float] = []
    stop_reason = StopReason.MAX_ITERATIONS
    for _ in range(cfg.max_iterations):
        moved = step(params, current_mse, activations)
        if moved is not None:
            params, current_mse, activations = moved
            if current_mse < best_mse:
                best, best_mse = params, current_mse
        history.append(current_mse)
        if moved is None or stopping_rule(history, cfg):
            stop_reason = StopReason.STALLED
            break
    return best, TrainingHistory(tuple(history), stop_reason)


def train_backprop(
    params: np.ndarray, data: Dataset, cfg: TrainingConfig
) -> tuple[np.ndarray, TrainingHistory]:
    """Full-batch gradient descent: param <- param - lr * grad(MSE).

    Returns the best-MSE vector seen.  Raises DivergenceDetected if the
    MSE or any parameter becomes non-finite.
    """

    def step(params: np.ndarray, _current_mse: float, activations: Activations):
        params = params - cfg.learning_rate * gradient(params, data, activations)
        if not np.all(np.isfinite(params)):
            raise DivergenceDetected("parameters became non-finite")
        m, activations = _scored(params, data)
        if not np.isfinite(m):
            raise DivergenceDetected(f"MSE became {m!r}")
        return params, m, activations

    # a step too large for float64 overflows to inf, which `step` names
    with np.errstate(over="ignore"):
        return _train(params, data, cfg, step)


def train_lm(
    params: np.ndarray, data: Dataset, cfg: TrainingConfig
) -> tuple[np.ndarray, TrainingHistory]:
    """Damped Gauss-Newton (Levenberg-Marquardt).

    Each iteration computes the step d = (J^T J + lambda I)^-1 J^T r and
    applies param <- param - d; the step is accepted only if it strictly
    lowers the MSE (lambda shrinks), otherwise lambda escalates and the
    solve is retried.  The damped system is solved in the smaller of its
    two equivalent forms, picked from the Jacobian's shape (P patterns,
    n parameters): when P < n, as for the 1:80:1 net on 180 patterns, the
    P x P system (J J^T + lambda I) x = r gives d = J^T x; otherwise the
    n x n system (J^T J + lambda I) d = J^T r is solved directly.  A solve
    that fails, or a candidate param - d that is not finite (a non-finite
    step, or a finite one that overflows), escalates lambda like a
    rejected step.  If no finite candidate appears in an iteration the
    damped system is declared unsolvable; if finite candidates exist but
    none improves, the run has converged and stops.
    """
    lam = _LAMBDA0
    # The last step's J and Gram matrix stay referenced until the next step
    # has built its own.  Freed at every return, they let malloc give the
    # memory back to the OS and fault it in again on each iteration: a
    # 300-iteration 1:80:1 fit took 41 000-71 000 minor page faults instead
    # of about 17 500.
    jac = gram = None

    def step(params: np.ndarray, current_mse: float, activations: Activations):
        nonlocal lam, jac, gram
        residuals, jac = residual_jacobian(params, data, activations)
        # (J^T J + lambda I)^-1 J^T r = J^T (J J^T + lambda I)^-1 r
        wide = jac.shape[0] < jac.shape[1]
        gram = jac @ jac.T if wide else jac.T @ jac
        rhs = residuals if wide else jac.T @ residuals
        # the product is a new C-contiguous array, so every (n + 1)-th
        # element of its flat view is the diagonal, writable in place
        gram_diagonal = gram.reshape(-1)[::gram.shape[0] + 1]
        diagonal = gram_diagonal.copy()
        any_finite_candidate = False
        for _attempt in range(_MAX_ESCALATIONS + 1):
            np.add(diagonal, lam, out=gram_diagonal)
            try:
                delta = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_FACTOR
                continue
            if wide:
                delta = jac.T @ delta
            candidate = params - delta
            if not np.all(np.isfinite(candidate)):
                lam *= _LAMBDA_FACTOR
                continue
            cand_mse, cand_activations = _scored(candidate, data)
            if np.isfinite(cand_mse):
                any_finite_candidate = True
                if cand_mse < current_mse:
                    lam = max(lam / _LAMBDA_FACTOR, _LAMBDA_MIN)
                    return candidate, cand_mse, cand_activations
            lam *= _LAMBDA_FACTOR
        if not any_finite_candidate:
            raise SingularNormalEquations(
                f"no solvable damped system after {_MAX_ESCALATIONS} escalations"
            )
        return None  # no improving step exists

    # a candidate that overflows to inf escalates lambda in `step`
    with np.errstate(over="ignore"):
        return _train(params, data, cfg, step)


OPTIMIZERS = ("lm", "backprop")


def trainer(optimizer: str):
    """The training function for an optimizer name in OPTIMIZERS."""
    if optimizer not in OPTIMIZERS:
        raise BadConfig(f"optimizer must be 'lm' or 'backprop', got {optimizer!r}")
    return train_lm if optimizer == "lm" else train_backprop

