import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rescomp.errors import BadConfig, NonFiniteArray, ShapeMismatch
from rescomp.network import Dataset, init_params, sigmoid
from rescomp.config import TrainingConfig
from rescomp.optim import train_lm
from rescomp.prune import (
    activation_matrix,
    effective_rank,
    prune_and_retrain,
    singular_values,
)
from tests.conftest import heldout_residuals, make_net


# --- activation matrix ---

def test_activation_matrix_zero_weights():
    params = np.zeros(13)
    params[4:8] = [0.5, -0.5, 1.0, 0.0]  # hidden thresholds
    data = Dataset([[0.2], [0.7], [0.9]], [[0.5], [0.5], [0.5]])
    X = activation_matrix(params, data)
    expected_row = sigmoid(np.array([0.5, -0.5, 1.0, 0.0]))
    for row in X:
        assert_allclose(row, expected_row, rtol=0, atol=0)


def test_activation_matrix_hand_case():
    # single pattern x=0.3, hidden weights [2, -1], thresholds [0.1, -0.2]
    params = np.array([2.0, -1.0, 0.1, -0.2, 0.0, 0.0, 0.0])
    data = Dataset([[0.3]], [[0.5]])
    X = activation_matrix(params, data)
    assert X.shape == (1, 2)
    assert X[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-0.7)), abs=1e-15)
    assert X[0, 1] == pytest.approx(1.0 / (1.0 + np.exp(0.5)), abs=1e-15)


def test_activation_matrix_dimensions(arch1_data, arch1_lm80):
    X = activation_matrix(arch1_lm80[0].params, arch1_data["dataset"])
    assert X.shape == (180, 80)


def test_activation_matrix_shape_mismatch():
    # a 2-output net (the 14 parameters of 1:3:2) or a 2-input dataset cannot
    # be built, so neither reaches activation_matrix
    with pytest.raises(ShapeMismatch):
        make_net(np.zeros(14))
    with pytest.raises(ShapeMismatch):
        Dataset([[0.1, 0.2]], [[0.5]])


# --- singular values ---

def test_singular_values_diagonal():
    assert_allclose(singular_values(np.diag([3.0, 2.0])), [3.0, 2.0])


def test_singular_values_rejects_non_finite():
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteArray) as info:
            singular_values(np.array([[1.0, bad]]))
        assert isinstance(info.value, ValueError)


def test_singular_values_rank_one():
    u = np.array([1.2, -0.8, 1.2])   # norm 2 (approx)
    u = 2.0 * u / np.linalg.norm(u)
    v = np.array([3.0, 4.0])         # norm 5
    s = singular_values(np.outer(u, v))
    assert s[0] == pytest.approx(10.0, rel=1e-12)
    assert s[1] == pytest.approx(0.0, abs=1e-12)


def test_frobenius_identity():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(180, 80))
    s = singular_values(X)
    assert np.sum(s**2) == pytest.approx(np.sum(X**2), rel=1e-10)
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)


# --- effective rank ---

def test_effective_rank_basic():
    assert effective_rank(np.array([10.0, 0.0])) == 1
    assert effective_rank(np.array([0.0, 0.0])) == 0
    assert effective_rank(np.array([])) == 0
    # RANK_REL_TOL * 1.0 is the float 1e-3 itself: a value equal to it does not
    # count, the next float above it does
    assert effective_rank(np.array([1.0, 1e-3])) == 1
    assert effective_rank(np.array([1.0, np.nextafter(1e-3, 1.0)])) == 2


def test_duplicated_columns_add_no_rank():
    rng = np.random.default_rng(31)
    base = rng.normal(size=(180, 60))
    X = np.hstack([base, base[:, :20]])
    assert X.shape == (180, 80)
    assert effective_rank(singular_values(X)) <= 60


def test_appending_duplicate_column_never_raises_rank():
    rng = np.random.default_rng(32)
    X = rng.normal(size=(40, 10))
    r_before = effective_rank(singular_values(X))
    X2 = np.hstack([X, X[:, 3:4]])
    assert effective_rank(singular_values(X2)) <= r_before


@given(st.floats(min_value=-1e6, max_value=1e6).filter(lambda c: abs(c) > 1e-9))
def test_effective_rank_scale_invariant(c):
    s = np.array([5.0, 1.0, 2e-3, 1e-7])
    scaled = np.abs(c) * s
    assert effective_rank(scaled) == effective_rank(s)


# --- prune and retrain ---

def test_prune_and_retrain_small_problem():
    rng = np.random.default_rng(33)
    angles = np.linspace(0, 1, 24, endpoint=False)[:, None]
    targets = 0.5 + 0.3 * np.cos(2 * np.pi * angles)
    data = Dataset(angles, targets)
    cfg = TrainingConfig(max_iterations=60, stall_window=20, seed=33)
    wide, _history = train_lm(init_params(2, seed=33), data, cfg)
    params, history, report = prune_and_retrain(wide, data, cfg, train_fn=train_lm)
    assert report.initial_hidden == 2
    assert 1 <= report.pruned_hidden <= 2
    assert params.shape == (3 * report.pruned_hidden + 1,)
    assert len(report.spectrum_initial) == 2
    # the history is the retraining's, from a fresh draw at the pruned width
    expected = train_lm(init_params(report.pruned_hidden, seed=33), data, cfg)
    assert np.array_equal(params, expected[0]) and history == expected[1]


def test_prune_and_retrain_validates_width():
    data = Dataset([[0.5]], [[0.5]])
    with pytest.raises(BadConfig):
        prune_and_retrain(init_params(1, seed=0), data, TrainingConfig(), train_fn=train_lm)


def test_prune_reference_profile(arch1_data, arch1_lm80, arch1_pruned):
    """Width shrinks strictly below 80 and held-out accuracy is preserved."""
    pruned_net, history, report = arch1_pruned
    assert report.initial_hidden == 80 and report.pruned_hidden < 80
    assert pruned_net.n_hidden == report.pruned_hidden
    # the report's MSEs are those of the trained nets, the last of each history
    assert report.mse_initial == pytest.approx(
        arch1_lm80[1].mse_per_iteration[-1], rel=1e-12
    )
    assert report.mse_pruned == pytest.approx(history.mse_per_iteration[-1], rel=1e-12)
    test_prof = arch1_data["test_prof"]
    mae_full = np.mean(np.abs(heldout_residuals(arch1_lm80[0], test_prof)))
    mae_pruned = np.mean(np.abs(heldout_residuals(pruned_net, test_prof)))
    assert abs(mae_full - mae_pruned) <= 0.05
