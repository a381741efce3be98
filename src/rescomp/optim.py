"""Training loop: full-batch gradient descent and Levenberg-Marquardt.

Both optimizers run one full-batch loop (pattern counts here are tiny) and
differ only in the step it takes; the loop records the MSE once per
iteration and stops either at the iteration budget or when
the relative MSE improvement over a trailing window drops below a
threshold ("stops decreasing").  Levenberg-Marquardt solves the damped
normal equations (J^T J + lambda I) d = J^T r each iteration and only
accepts steps that strictly lower the MSE, so its recorded MSE sequence
is non-increasing.  Training is deterministic: identical inputs give
bit-identical histories.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceDetected, SingularNormalEquations
from .network import (
    Dataset,
    Network,
    NetworkShape,
    gradient,
    init_network,
    mse,
    residual_jacobian,
)

# Floor keeps the damping alive after long runs of accepted steps.
_LAMBDA_MIN = 1e-15
# Rejected-step retries per iteration before giving up.
_MAX_ESCALATIONS = 30


@dataclass(frozen=True)
class TrainingConfig:
    max_iterations: int = 10000
    learning_rate: float = 0.5        # gradient descent only
    lm_lambda0: float = 1e-3
    lm_factor: float = 10.0
    stall_window: int = 200           # at or above max_iterations: never fires
    stall_tol: float = 1e-9           # relative MSE improvement
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.learning_rate <= 0 or self.lm_lambda0 <= 0:
            raise ValueError("learning_rate and lm_lambda0 must be > 0")
        if self.lm_factor <= 1:
            raise ValueError("lm_factor must be > 1")
        if self.stall_window < 1:
            raise ValueError("stall_window must be >= 1")
        if self.stall_tol <= 0:
            raise ValueError("stall_tol must be > 0")


class StopReason(enum.Enum):
    MAX_ITERATIONS = "max_iterations"
    STALLED = "stalled"


@dataclass(frozen=True)
class TrainingHistory:
    mse_per_iteration: tuple[float, ...]
    stop_reason: StopReason
    iterations_run: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "mse_per_iteration", tuple(self.mse_per_iteration))
        if len(self.mse_per_iteration) != self.iterations_run:
            raise ValueError("history length must equal iterations_run")


def stopping_rule(mse_history, cfg: TrainingConfig) -> bool:
    """True once the trailing `stall_window` iterations improved the MSE
    by less than `stall_tol` (relative)."""
    window = cfg.stall_window
    if len(mse_history) < window:
        return False
    old = mse_history[-window]
    new = mse_history[-1]
    if old == 0.0:
        return True
    return (old - new) / abs(old) < cfg.stall_tol


def _train(
    net: Network, data: Dataset, cfg: TrainingConfig, step
) -> tuple[Network, TrainingHistory]:
    """The loop both optimizers share.

    `step(current, current_mse)` returns the next `(network, mse)`, or None
    when no step lowers the MSE, which stops training as stalled.  Returns
    the best-MSE network seen and the per-iteration MSE history.
    """
    current, current_mse = net, mse(net, data)
    if not np.isfinite(current_mse):
        raise DivergenceDetected(f"initial MSE is {current_mse!r}")
    best, best_mse = current, current_mse
    history: list[float] = []
    stop_reason = StopReason.MAX_ITERATIONS
    for _ in range(cfg.max_iterations):
        moved = step(current, current_mse)
        if moved is not None:
            current, current_mse = moved
            if current_mse < best_mse:
                best, best_mse = current, current_mse
        history.append(current_mse)
        if moved is None or stopping_rule(history, cfg):
            stop_reason = StopReason.STALLED
            break
    return best, TrainingHistory(tuple(history), stop_reason, len(history))


def train_backprop(
    net: Network, data: Dataset, cfg: TrainingConfig
) -> tuple[Network, TrainingHistory]:
    """Full-batch gradient descent: param <- param - lr * grad(MSE).

    Returns the best-MSE network seen.  Raises DivergenceDetected if the
    MSE or any parameter becomes non-finite.
    """

    def step(current: Network, _current_mse: float):
        params = current.to_vector() - cfg.learning_rate * gradient(current, data).to_vector()
        if not np.all(np.isfinite(params)):
            raise DivergenceDetected("parameters became non-finite")
        current = current.with_params(params)
        m = mse(current, data)
        if not np.isfinite(m):
            raise DivergenceDetected(f"MSE became {m!r}")
        return current, m

    return _train(net, data, cfg, step)


def train_lm(
    net: Network, data: Dataset, cfg: TrainingConfig
) -> tuple[Network, TrainingHistory]:
    """Damped Gauss-Newton (Levenberg-Marquardt).

    Each iteration solves (J^T J + lambda I) d = J^T r and applies
    param <- param - d; the step is accepted only if it strictly lowers
    the MSE (lambda shrinks), otherwise lambda escalates and the solve is
    retried.  If no finite candidate appears in an iteration the damped
    system is declared unsolvable; if finite candidates exist but none
    improves, the run has converged and stops.
    """
    lam = cfg.lm_lambda0
    identity = np.eye(net.n_params)
    # The last step's J and J^T J stay referenced until the next step has
    # built its own.  Freed at every return, they let malloc give the memory
    # back to the OS and fault it in again on each iteration: a 1:80:1 fit
    # took 2.5x the minor page faults and ran about 45 % slower (2-vCPU VM).
    jac = jtj = None

    def step(current: Network, current_mse: float):
        nonlocal lam, jac, jtj
        residuals, jac = residual_jacobian(current, data)
        jtj = jac.T @ jac
        jtr = jac.T @ residuals
        params = current.to_vector()
        any_finite_candidate = False
        for _attempt in range(_MAX_ESCALATIONS + 1):
            try:
                delta = np.linalg.solve(jtj + lam * identity, jtr)
            except np.linalg.LinAlgError:
                lam *= cfg.lm_factor
                continue
            if not np.all(np.isfinite(delta)):
                lam *= cfg.lm_factor
                continue
            cand_net = current.with_params(params - delta)
            cand_mse = mse(cand_net, data)
            if np.isfinite(cand_mse):
                any_finite_candidate = True
                if cand_mse < current_mse:
                    lam = max(lam / cfg.lm_factor, _LAMBDA_MIN)
                    return cand_net, cand_mse
            lam *= cfg.lm_factor
        if not any_finite_candidate:
            raise SingularNormalEquations(
                f"no solvable damped system after {_MAX_ESCALATIONS} escalations"
            )
        return None  # no improving step exists

    return _train(net, data, cfg, step)


OPTIMIZERS = ("lm", "backprop")


def trainer(optimizer: str):
    """The training function for an optimizer name in OPTIMIZERS."""
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"optimizer must be 'lm' or 'backprop', got {optimizer!r}")
    return train_lm if optimizer == "lm" else train_backprop


DEFAULT_SWEEP_NODES = tuple(range(10, 111, 10))


def node_sweep(
    data: Dataset,
    nodes=DEFAULT_SWEEP_NODES,
    train_fn=train_lm,
    cfg: TrainingConfig = TrainingConfig(),
) -> list[tuple[int, float]]:
    """Train one network per hidden-layer width, report (width, final MSE).

    Every width starts from the same seed so the comparison isolates the
    effect of network size.
    """
    results = []
    for j in nodes:
        net = init_network(NetworkShape(1, int(j), 1), cfg.seed)
        trained, _history = train_fn(net, data, cfg)
        results.append((int(j), mse(trained, data)))
    return results
