import numpy as np
import pytest

from rescomp.network import Dataset, NetworkShape, forward_batch, init_network, mse
from rescomp.optim import (
    DEFAULT_SWEEP_NODES,
    StopReason,
    TrainingConfig,
    TrainingHistory,
    node_sweep,
    stopping_rule,
    train_backprop,
    train_lm,
)


# --- config and history invariants ---

def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(max_iterations=0)
    with pytest.raises(ValueError):
        TrainingConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainingConfig(lm_factor=1.0)
    with pytest.raises(ValueError):
        TrainingConfig(stall_window=0)


def test_history_length_must_match():
    with pytest.raises(ValueError):
        TrainingHistory((1.0, 0.5), StopReason.STALLED, 3)


# --- stopping rule ---

def _cfg(window=200, tol=1e-9):
    return TrainingConfig(stall_window=window, stall_tol=tol)


def test_stopping_rule_decreasing_sequence():
    mses = [0.5 * 0.99**k for k in range(400)]
    assert not stopping_rule(mses, _cfg())


def test_stopping_rule_constant_sequence():
    assert stopping_rule([0.25] * 200, _cfg())
    assert not stopping_rule([0.25] * 199, _cfg())


def test_stopping_rule_fires_at_first_eligible_index():
    # 50 decreasing entries then flat: the rule must fire exactly when the
    # trailing window is entirely flat
    window = 200
    seq = [1.0 - 0.01 * k for k in range(50)] + [0.5] * 300
    fired_at = next(
        i for i in range(1, len(seq) + 1) if stopping_rule(seq[:i], _cfg(window))
    )
    assert fired_at == 50 + window


def test_stopping_rule_zero_floor():
    assert stopping_rule([0.0] * 200, _cfg())


# --- gradient descent ---

def test_backprop_constant_target_toy():
    net = init_network(NetworkShape(1, 2, 1), seed=4)
    data = Dataset(np.linspace(0, 1, 8)[:, None], np.full((8, 1), 0.5))
    cfg = TrainingConfig(max_iterations=2000, learning_rate=5.0, stall_window=100, seed=4)
    trained, history = train_backprop(net, data, cfg)
    assert mse(trained, data) < 1e-6
    assert history.iterations_run <= 2000


def test_backprop_huge_learning_rate_never_returns_nonfinite():
    net = init_network(NetworkShape(1, 4, 1), seed=6)
    data = Dataset(np.linspace(0, 1, 10)[:, None], np.linspace(0.2, 0.8, 10)[:, None])
    cfg = TrainingConfig(max_iterations=500, learning_rate=1e4, stall_window=100, seed=6)
    try:
        trained, _history = train_backprop(net, data, cfg)
    except Exception as exc:
        assert type(exc).__name__ == "DivergenceDetected"
    else:
        assert np.all(np.isfinite(trained.to_vector()))


def test_backprop_returns_best_seen():
    net = init_network(NetworkShape(1, 3, 1), seed=7)
    data = Dataset(np.linspace(0, 1, 6)[:, None], np.linspace(0.3, 0.7, 6)[:, None])
    cfg = TrainingConfig(max_iterations=300, learning_rate=8.0, stall_window=50, seed=7)
    trained, history = train_backprop(net, data, cfg)
    assert mse(trained, data) <= min(history.mse_per_iteration) + 1e-18


def test_backprop_deterministic():
    net = init_network(NetworkShape(1, 3, 1), seed=8)
    data = Dataset(np.linspace(0, 1, 5)[:, None], np.full((5, 1), 0.4))
    cfg = TrainingConfig(max_iterations=100, stall_window=50, seed=8)
    _, h1 = train_backprop(net, data, cfg)
    _, h2 = train_backprop(net, data, cfg)
    assert h1.mse_per_iteration == h2.mse_per_iteration


# --- Levenberg-Marquardt ---

def test_lm_recovers_teacher_network():
    teacher = init_network(NetworkShape(1, 2, 1), seed=77)
    teacher = teacher.with_params(np.array([1.7, -2.2, 0.3, -0.4, 1.1, -0.8, 0.25]))
    xs = np.linspace(0.1, 0.9, 5)[:, None]
    data = Dataset(xs, forward_batch(teacher, xs))
    student = init_network(NetworkShape(1, 2, 1), seed=5)
    cfg = TrainingConfig(max_iterations=200, stall_window=50, seed=5)
    trained, history = train_lm(student, data, cfg)
    assert mse(trained, data) < 1e-10
    assert history.iterations_run < 200


def test_lm_exact_fit_start_stalls_without_moving():
    net = init_network(NetworkShape(1, 3, 1), seed=8)
    net = net.with_params(np.zeros(net.n_params))
    data = Dataset([[0.2], [0.8]], [[0.5], [0.5]])
    trained, history = train_lm(net, data, TrainingConfig(max_iterations=100, stall_window=50))
    assert history.iterations_run == 1
    assert history.stop_reason is StopReason.STALLED
    assert np.array_equal(trained.to_vector(), net.to_vector())


def test_lm_recorded_mse_non_increasing():
    net = init_network(NetworkShape(1, 6, 1), seed=9)
    rng = np.random.default_rng(9)
    data = Dataset(rng.uniform(0, 1, (20, 1)), rng.uniform(0.2, 0.8, (20, 1)))
    _, history = train_lm(net, data, TrainingConfig(max_iterations=150, stall_window=60, seed=9))
    h = history.mse_per_iteration
    assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))


def test_lm_deterministic():
    net = init_network(NetworkShape(1, 4, 1), seed=10)
    rng = np.random.default_rng(10)
    data = Dataset(rng.uniform(0, 1, (12, 1)), rng.uniform(0.2, 0.8, (12, 1)))
    cfg = TrainingConfig(max_iterations=80, stall_window=40, seed=10)
    net1, h1 = train_lm(net, data, cfg)
    net2, h2 = train_lm(net, data, cfg)
    assert h1.mse_per_iteration == h2.mse_per_iteration
    assert np.array_equal(net1.to_vector(), net2.to_vector())


def test_lm_never_returns_nonfinite():
    net = init_network(NetworkShape(1, 5, 1), seed=11)
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(0, 1, (9, 1)), rng.uniform(0.1, 0.9, (9, 1)))
    trained, _ = train_lm(net, data, TrainingConfig(max_iterations=60, stall_window=30))
    assert np.all(np.isfinite(trained.to_vector()))


# --- reference-profile convergence (shared heavyweight fixtures) ---

def test_lm_reaches_low_training_mse(arch1_data, arch1_lm80):
    trained, history = arch1_lm80
    budget = history.mse_per_iteration[: min(6000, len(history.mse_per_iteration))]
    assert budget[-1] <= 0.017


def test_lm_beats_backprop_at_equal_budget(arch1_data, arch1_lm80, arch1_backprop):
    lm_net, _ = arch1_lm80
    bp_net, _ = arch1_backprop
    data = arch1_data["dataset"]
    assert mse(lm_net, data) <= mse(bp_net, data)


def test_wider_net_fits_better_at_full_budget(arch1_data, arch1_lm80, arch1_lm20):
    data = arch1_data["dataset"]
    assert mse(arch1_lm80[0], data) < mse(arch1_lm20[0], data)


# --- node sweep ---

def test_default_sweep_nodes():
    assert DEFAULT_SWEEP_NODES == tuple(range(10, 111, 10))


def test_node_sweep_handles_tiny_widths():
    rng = np.random.default_rng(12)
    data = Dataset(rng.uniform(0, 1, (10, 1)), rng.uniform(0.3, 0.7, (10, 1)))
    cfg = TrainingConfig(max_iterations=30, stall_window=10, seed=12)
    results = node_sweep(data, nodes=(1, 2), cfg=cfg)
    assert [j for j, _ in results] == [1, 2]
    assert all(np.isfinite(m) for _, m in results)
