import warnings

import numpy as np
import pytest

from rescomp import optim
from rescomp.config import TrainingConfig
from rescomp.errors import BadConfig, RescompError, SingularNormalEquations
from rescomp.network import (
    Dataset,
    Network,
    forward_batch,
    gradient,
    init_params,
    mse,
    residual_jacobian,
)
from rescomp.optim import (
    StopReason,
    TrainingHistory,
    stopping_rule,
    train_backprop,
    train_lm,
    trainer,
)
from tests.conftest import heldout_residuals, make_net


# --- config and history invariants ---

def test_config_validation():
    with pytest.raises(ValueError):
        TrainingConfig(max_iterations=0)
    with pytest.raises(ValueError):
        TrainingConfig(stall_window=0)


def test_config_errors_are_named_value_errors():
    for make in (lambda: TrainingConfig(max_iterations=0), lambda: TrainingConfig(seed=-1),
                 lambda: trainer("adam")):
        with pytest.raises(BadConfig) as info:
            make()
        assert isinstance(info.value, RescompError) and isinstance(info.value, ValueError)


def test_iterations_run_is_history_length():
    assert TrainingHistory((1.0, 0.5), StopReason.STALLED).iterations_run == 2


# --- stopping rule ---

def _cfg(window=200):
    return TrainingConfig(stall_window=window)


def test_stopping_rule_decreasing_sequence():
    mses = [0.5 * 0.99**k for k in range(400)]
    assert not stopping_rule(mses, _cfg())


def test_stopping_rule_constant_sequence():
    assert stopping_rule([0.25] * 200, _cfg())
    assert not stopping_rule([0.25] * 199, _cfg())


def test_stopping_rule_fires_at_first_eligible_index():
    # 50 entries at 1.0 then flat at 0.5: the rule must fire exactly when the
    # trailing window is entirely flat
    window = 200
    seq = [1.0] * 50 + [0.5] * 300
    fired_at = next(
        i for i in range(1, len(seq) + 1) if stopping_rule(seq[:i], _cfg(window))
    )
    assert fired_at == 50 + window


def test_stopping_rule_zero_floor():
    assert stopping_rule([0.0] * 200, _cfg())


def test_stopping_rule_tolerance_edges():
    # exact binary MSEs: a 12.5 % cut over the window keeps training, 6.25 % stops it
    assert not stopping_rule([1.0] + [0.875] * 199, _cfg())
    assert stopping_rule([1.0] + [0.9375] * 199, _cfg())


# --- gradient descent ---

def test_backprop_constant_target_toy(monkeypatch):
    monkeypatch.setattr(optim, "_LEARNING_RATE", 5.0)
    params = init_params(2, seed=4)
    data = Dataset(np.linspace(0, 1, 8)[:, None], np.full((8, 1), 0.5))
    cfg = TrainingConfig(max_iterations=2000, stall_window=100, seed=4)
    trained, history = train_backprop(params, data, cfg)
    assert mse(trained, data) < 1e-6
    assert history.iterations_run <= 2000


def test_backprop_huge_learning_rate_never_returns_nonfinite(monkeypatch):
    monkeypatch.setattr(optim, "_LEARNING_RATE", 1e4)
    params = init_params(4, seed=6)
    data = Dataset(np.linspace(0, 1, 10)[:, None], np.linspace(0.2, 0.8, 10)[:, None])
    cfg = TrainingConfig(max_iterations=500, stall_window=100, seed=6)
    try:
        trained, _history = train_backprop(params, data, cfg)
    except Exception as exc:
        assert type(exc).__name__ == "DivergenceDetected"
    else:
        assert np.all(np.isfinite(trained))


def test_backprop_returns_best_seen(monkeypatch):
    monkeypatch.setattr(optim, "_LEARNING_RATE", 8.0)
    params = init_params(3, seed=7)
    data = Dataset(np.linspace(0, 1, 6)[:, None], np.linspace(0.3, 0.7, 6)[:, None])
    cfg = TrainingConfig(max_iterations=300, stall_window=50, seed=7)
    trained, history = train_backprop(params, data, cfg)
    assert mse(trained, data) <= min(history.mse_per_iteration) + 1e-18


def test_backprop_deterministic():
    params = init_params(3, seed=8)
    data = Dataset(np.linspace(0, 1, 5)[:, None], np.full((5, 1), 0.4))
    cfg = TrainingConfig(max_iterations=100, stall_window=50, seed=8)
    _, h1 = train_backprop(params, data, cfg)
    _, h2 = train_backprop(params, data, cfg)
    assert h1.mse_per_iteration == h2.mse_per_iteration


def test_backprop_never_builds_the_jacobian(monkeypatch):
    # gradient descent contracts (2 / P) J^T r block by block; the
    # (P, 3J + 1) residual Jacobian belongs to LM alone
    def no_jacobian(*_args, **_kwargs):
        raise AssertionError("gradient descent built the residual Jacobian")

    monkeypatch.setattr("rescomp.network.residual_jacobian", no_jacobian)
    monkeypatch.setattr("rescomp.optim.residual_jacobian", no_jacobian)
    params = init_params(80, seed=9)
    data = Dataset(np.linspace(0, 1, 180)[:, None], np.linspace(0.2, 0.8, 180)[:, None])
    cfg = TrainingConfig(max_iterations=20, stall_window=50, seed=9)
    trained, history = train_backprop(params, data, cfg)
    assert history.iterations_run == 20
    assert mse(trained, data) < mse(params, data)


# --- Levenberg-Marquardt ---

def test_lm_recovers_teacher_network():
    teacher = make_net(np.array([1.7, -2.2, 0.3, -0.4, 1.1, -0.8, 0.25]))
    xs = np.linspace(0.1, 0.9, 5)[:, None]
    data = Dataset(xs, forward_batch(teacher, xs))
    cfg = TrainingConfig(max_iterations=200, stall_window=50, seed=5)
    trained, history = train_lm(init_params(2, seed=5), data, cfg)
    assert mse(trained, data) < 1e-10
    assert history.iterations_run < 200


def test_lm_exact_fit_start_stalls_without_moving():
    params = np.zeros(10)
    data = Dataset([[0.2], [0.8]], [[0.5], [0.5]])
    trained, history = train_lm(params, data, TrainingConfig(max_iterations=100, stall_window=50))
    assert history.iterations_run == 1
    assert history.stop_reason is StopReason.STALLED
    assert np.array_equal(trained, params)


def test_lm_recorded_mse_non_increasing():
    params = init_params(6, seed=9)
    rng = np.random.default_rng(9)
    data = Dataset(rng.uniform(0, 1, (20, 1)), rng.uniform(0.2, 0.8, (20, 1)))
    cfg = TrainingConfig(max_iterations=150, stall_window=60, seed=9)
    _, history = train_lm(params, data, cfg)
    h = history.mse_per_iteration
    assert all(h[i + 1] <= h[i] for i in range(len(h) - 1))


@pytest.mark.parametrize("hidden, patterns", [(4, 8), (3, 20)])
def test_lm_step_solves_damped_normal_equations(hidden, patterns):
    # 1:4:1 on 8 patterns has more parameters than patterns (13 > 8), so the
    # step goes through the 8 x 8 system; 1:3:1 on 20 patterns (10 <= 20)
    # solves the 10 x 10 normal equations themselves
    params = init_params(hidden, seed=13)
    rng = np.random.default_rng(13)
    data = Dataset(rng.uniform(0, 1, (patterns, 1)), rng.uniform(0.2, 0.8, (patterns, 1)))
    cfg = TrainingConfig(max_iterations=1, seed=13)
    trained, history = train_lm(params, data, cfg)
    assert history.mse_per_iteration[0] < mse(params, data)  # the lambda0 step was accepted
    residuals, jac = residual_jacobian(params, data)
    damped = jac.T @ jac + optim._LAMBDA0 * np.eye(params.size)
    expected = params - np.linalg.solve(damped, jac.T @ residuals)
    if params.size <= patterns:
        assert np.array_equal(trained, expected)
    else:
        np.testing.assert_allclose(trained, expected, rtol=1e-9)


def test_lm_deterministic():
    params = init_params(4, seed=10)
    rng = np.random.default_rng(10)
    data = Dataset(rng.uniform(0, 1, (12, 1)), rng.uniform(0.2, 0.8, (12, 1)))
    cfg = TrainingConfig(max_iterations=80, stall_window=40, seed=10)
    params1, h1 = train_lm(params, data, cfg)
    params2, h2 = train_lm(params, data, cfg)
    assert h1.mse_per_iteration == h2.mse_per_iteration
    assert np.array_equal(params1, params2)


def test_lm_never_returns_nonfinite():
    params = init_params(5, seed=11)
    rng = np.random.default_rng(11)
    data = Dataset(rng.uniform(0, 1, (9, 1)), rng.uniform(0.1, 0.9, (9, 1)))
    trained, _ = train_lm(params, data, TrainingConfig(max_iterations=60, stall_window=30))
    assert np.all(np.isfinite(trained))


def test_lm_overflowing_candidate_escalates_lambda(monkeypatch):
    # a finite step whose candidate params - delta overflows escalates lambda
    # like a non-finite step; with every candidate overflowing, no finite
    # candidate appears and the damped system is declared unsolvable
    params = init_params(2, seed=14)
    params[-1] = 1.5e308
    data = Dataset(np.linspace(0, 1, 10)[:, None], np.linspace(0.2, 0.8, 10)[:, None])
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full(b.shape, -1.5e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularNormalEquations):
            train_lm(params, data, TrainingConfig(max_iterations=5, seed=14))


# --- what one training computes ---

def _counting(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("train_fn", [train_lm, train_backprop])
def test_training_builds_no_network(monkeypatch, train_fn):
    # the trainer takes and returns bare parameter vectors; the caller pairs
    # the result with its normalization maps
    params = init_params(6, seed=15)
    rng = np.random.default_rng(15)
    data = Dataset(rng.uniform(0, 1, (20, 1)), rng.uniform(0.2, 0.8, (20, 1)))
    counts = {}
    _counting(monkeypatch, Network, "__post_init__", counts)
    trained, history = train_fn(params, data, TrainingConfig(max_iterations=50, seed=15))
    assert history.iterations_run == 50
    assert counts == {}
    assert isinstance(trained, np.ndarray) and trained.shape == (19,)


def test_backprop_call_counts(monkeypatch):
    # what the benchmark tracer reads: one gradient per iteration, one MSE
    # per iteration plus one for the starting point
    counts = {}
    for name in ("mse", "residual_jacobian", "gradient"):
        _counting(monkeypatch, optim, name, counts)
    params = init_params(5, seed=16)
    data = Dataset(np.linspace(0, 1, 12)[:, None], np.linspace(0.3, 0.7, 12)[:, None])
    _, history = train_backprop(params, data, TrainingConfig(max_iterations=40, seed=16))
    assert history.iterations_run == 40
    assert counts == {"gradient": 40, "mse": 41}


def test_lm_call_counts(monkeypatch):
    # one Jacobian per iteration, and one MSE per solve plus one for the
    # starting point: every solve here gives a finite candidate
    counts = {}
    for name in ("mse", "residual_jacobian", "gradient"):
        _counting(monkeypatch, optim, name, counts)
    _counting(monkeypatch, np.linalg, "solve", counts)
    params = init_params(4, seed=17)
    rng = np.random.default_rng(17)
    data = Dataset(rng.uniform(0, 1, (15, 1)), rng.uniform(0.2, 0.8, (15, 1)))
    _, history = train_lm(params, data, TrainingConfig(max_iterations=60, seed=17))
    assert "gradient" not in counts
    assert counts["residual_jacobian"] == history.iterations_run
    assert counts["solve"] > history.iterations_run      # some steps were rejected
    assert counts["mse"] == counts["solve"] + 1


# --- carried activations: bit-identical to recomputing every forward pass ---

def _uncarried_train(params, data, cfg, lm):
    """The training loop with every forward pass recomputed: `mse`,
    `residual_jacobian` and `gradient` get no activations.  Returns the
    best parameter vector and the MSE history."""
    lam = optim._LAMBDA0
    current, current_mse = params, mse(params, data)
    best, best_mse = current, current_mse
    history = []
    for _ in range(cfg.max_iterations):
        moved = None
        if lm:
            residuals, jac = residual_jacobian(current, data)
            wide = jac.shape[0] < jac.shape[1]
            gram = jac @ jac.T if wide else jac.T @ jac
            rhs = residuals if wide else jac.T @ residuals
            diagonal = gram.diagonal().copy()
            for _attempt in range(31):
                np.fill_diagonal(gram, diagonal + lam)
                delta = np.linalg.solve(gram, rhs)
                if wide:
                    delta = jac.T @ delta
                cand = current - delta
                cand_mse = mse(cand, data)
                if cand_mse < current_mse:
                    lam = max(lam / optim._LAMBDA_FACTOR, 1e-15)
                    moved = cand, cand_mse
                    break
                lam *= optim._LAMBDA_FACTOR
        else:
            grad = gradient(current, data)
            cand = current - optim._LEARNING_RATE * grad
            moved = cand, mse(cand, data)
        if moved is not None:
            current, current_mse = moved
            if current_mse < best_mse:
                best, best_mse = moved
        history.append(current_mse)
        if moved is None or stopping_rule(history, cfg):
            break
    return best, tuple(history)


@pytest.mark.parametrize("hidden, iterations, train_fn", [
    (80, 50, train_lm),         # 241 parameters > 180 patterns: the J J^T system
    (10, 50, train_lm),         # 31 parameters: the J^T J system
    (80, 200, train_backprop),
])
def test_training_matches_uncarried_loop(arch1_data, hidden, iterations, train_fn):
    params = init_params(hidden, seed=42)
    data = arch1_data["dataset"]
    cfg = TrainingConfig(max_iterations=iterations, seed=42)
    trained, history = train_fn(params, data, cfg)
    expected, expected_history = _uncarried_train(params, data, cfg, train_fn is train_lm)
    assert history.mse_per_iteration == expected_history
    assert np.array_equal(trained, expected)


# --- reference-profile convergence (shared heavyweight fixtures) ---

def test_lm_reaches_low_training_mse(arch1_data, arch1_lm80):
    trained, history = arch1_lm80
    budget = history.mse_per_iteration[: min(6000, len(history.mse_per_iteration))]
    assert budget[-1] <= 0.017


def test_lm_beats_backprop_at_equal_budget(arch1_data, arch1_lm80, arch1_backprop):
    lm_net, _ = arch1_lm80
    bp_net, _ = arch1_backprop
    data = arch1_data["dataset"]
    assert mse(lm_net.params, data) <= mse(bp_net.params, data)


def test_wider_net_fits_better_at_full_budget(arch1_data, arch1_lm80, arch1_lm20):
    data = arch1_data["dataset"]
    assert mse(arch1_lm80[0].params, data) < mse(arch1_lm20[0].params, data)



def test_default_config_lm_fit_stops_early_within_bound(arch1_data):
    # the spread-centre draw reaches the error's noise floor in a few hundred
    # iterations; the default stop must end the fit there, before it overfits
    params, history = train_lm(arch1_data["params0"], arch1_data["dataset"], TrainingConfig())
    assert history.stop_reason is StopReason.STALLED
    assert history.iterations_run <= 1000
    residuals = heldout_residuals(make_net(params), arch1_data["test_prof"])
    assert np.max(np.abs(residuals)) <= 0.65
