"""Training and experiment settings.

Plain validated values, apart from the code that fits with them: the
command line builds its flag defaults from these classes, and a process
that only corrects angles loads none of the training modules.  A bad value
raises `BadConfig` naming its field.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadConfig

OPTIMIZERS = ("lm", "backprop")

# The widest hidden layer a fit accepts: 25 times the paper's 80 nodes and
# 6 001 parameters against the 180 patterns of a 2-degree grid.  From J = 1 778
# a `network.forward_batch` chunk outgrows `network.CHUNK_ELEMENTS`: 9 rows with
# a one-row remainder, 144 KB at this width.  One LM Jacobian row is 48 KB.
MAX_HIDDEN = 2000


def check_optimizer(optimizer: str) -> None:
    """BadConfig unless `optimizer` is a name in OPTIMIZERS."""
    if optimizer not in OPTIMIZERS:
        raise BadConfig(f"optimizer must be 'lm' or 'backprop', got {optimizer!r}")


def _store_int(cfg, name: str) -> None:
    """Store field `name` of `cfg` as a Python int; BadConfig unless it is a
    Python or numpy integer, not a bool.  (`report.json` holds the fields,
    and json writes no numpy integer.)"""
    value = getattr(cfg, name)
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise BadConfig(f"{name} must be an integer, got {value!r}")
    object.__setattr__(cfg, name, value.__index__())


@dataclass(frozen=True)
class TrainingConfig:
    max_iterations: int = 10000
    # stop once `stall_window` iterations cut the MSE by less than
    # `optim._STALL_TOL` (relative); a window at or above max_iterations never fires
    stall_window: int = 200
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("max_iterations", "stall_window", "seed"):
            _store_int(self, name)
        if self.max_iterations < 1:
            raise BadConfig("max_iterations must be >= 1")
        if self.stall_window < 1:
            raise BadConfig("stall_window must be >= 1")
        if self.seed < 0:
            raise BadConfig(f"seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    hidden: int = 80
    optimizer: str = "lm"            # "lm" | "backprop"
    top_orders: int = 10
    prune: bool = False
    training: TrainingConfig = TrainingConfig()

    def __post_init__(self) -> None:
        check_optimizer(self.optimizer)
        for name in ("hidden", "top_orders"):
            _store_int(self, name)
        if self.hidden < 1:
            raise BadConfig("hidden must be >= 1")
        if self.hidden > MAX_HIDDEN:
            raise BadConfig(f"hidden must be <= {MAX_HIDDEN}, got {self.hidden!r}")
        if self.top_orders < 0:
            raise BadConfig(f"top_orders must be >= 0, got {self.top_orders!r}")
        if self.prune and self.hidden < 2:
            raise BadConfig("pruning needs hidden >= 2")
