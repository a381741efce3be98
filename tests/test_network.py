import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from rescomp.caldata import ErrorProfile
from rescomp.errors import (
    DegenerateBounds,
    EmptyDataset,
    NonFiniteArray,
    PatternOutOfRange,
    RescompError,
    ShapeMismatch,
    TargetOutOfRange,
)
from rescomp.network import (
    INIT_SLOPE,
    INPUT_NORM,
    TARGET_NORM,
    AffineMap,
    Dataset,
    _activations,
    _sigmoid_in_place,
    dataset_from_profile,
    forward_batch,
    gradient,
    init_params,
    mse,
    residual_jacobian,
    sigmoid,
)
from tests.conftest import make_net


def fd_gradient(net, data, h=1e-5):
    """Independent oracle: central finite differences of the MSE."""
    p0 = net.params
    out = np.empty_like(p0)
    for q in range(len(p0)):
        plus, minus = p0.copy(), p0.copy()
        plus[q] += h
        minus[q] -= h
        out[q] = (mse(plus, data) - mse(minus, data)) / (2 * h)
    return out


def fd_residual_jacobian(net, data, h=1e-5):
    """Independent oracle: central finite differences of the residual vector."""
    p0 = net.params
    r0, _ = residual_jacobian(net.params, data)
    out = np.empty((len(r0), len(p0)))
    for q in range(len(p0)):
        plus, minus = p0.copy(), p0.copy()
        plus[q] += h
        minus[q] -= h
        rp, _ = residual_jacobian(plus, data)
        rm, _ = residual_jacobian(minus, data)
        out[:, q] = (rp - rm) / (2 * h)
    return out


def random_net(rng, hidden=3, spread=2.0):
    return make_net(rng.uniform(-spread, spread, 3 * hidden + 1))


def random_data(rng, n=4):
    return Dataset(rng.uniform(0, 1, (n, 1)), rng.uniform(0.05, 0.95, (n, 1)))


# --- initialization ---

def test_init_deterministic():
    assert np.array_equal(init_params(5, seed=9), init_params(5, seed=9))


def test_init_spread_centres():
    params = init_params(80, seed=7)
    w_hidden, theta_hidden, w_output, theta_output = np.split(params, [80, 160, 240])
    assert np.all(np.abs(w_hidden) == INIT_SLOPE)
    assert np.any(w_hidden > 0) and np.any(w_hidden < 0)
    centres = -theta_hidden / w_hidden
    assert np.all((centres >= 0.0) & (centres <= 1.0))
    assert np.all(np.abs(w_output) <= 0.5)
    assert np.all(theta_output == 0.0)
    assert np.array_equal(params, init_params(80, seed=7))


def test_param_count_1_80_1():
    net = make_net(init_params(80, seed=0))
    assert net.n_hidden == 80
    assert net.params.shape == (80 * 1 + 80 + 1 * 80 + 1,) == (241,)


def test_degenerate_bounds():
    with pytest.raises(DegenerateBounds):
        AffineMap(3.0, 3.0, 0.1, 0.9)


# --- normalization ---

def test_target_norm_endpoints():
    m = TARGET_NORM
    assert m.normalize(-6.0) == pytest.approx(0.1, abs=1e-15)
    assert m.normalize(6.0) == pytest.approx(0.9, abs=1e-15)
    assert m.normalize(0.0) == pytest.approx(0.5, abs=1e-15)


def test_input_norm_endpoints():
    assert INPUT_NORM.normalize(0.0) == 0.0
    assert INPUT_NORM.normalize(360.0) == 1.0
    assert INPUT_NORM.normalize(180.0) == 0.5


def test_norm_roundtrip_tight():
    m = TARGET_NORM
    rng = np.random.default_rng(3)
    values = rng.uniform(-6, 6, 1000)
    assert np.max(np.abs(m.denormalize(m.normalize(values)) - values)) < 1e-12


# --- logistic ---

@settings(max_examples=300)
@given(z=st.floats(allow_nan=False) | st.sampled_from([np.inf, -np.inf, 1e308, -1e308]))
def test_sigmoid_open_interval_without_warnings(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = float(sigmoid(z))
        batch = sigmoid(np.array([z, -z]))
    assert 0.0 < y < 1.0
    assert np.all((batch > 0.0) & (batch < 1.0))
    if abs(z) <= 30.0:
        reference = 1.0 / (1.0 + math.exp(-z))
        assert abs(y - reference) <= 2 * math.ulp(reference)


def sigmoid_min_max(z):
    """The clamp `sigmoid` took before `np.clip`: maximum, then minimum."""
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -709.0), 36.0)))


def sigmoid_reference(z):
    """The out-of-place expression the in-place kernel replaces."""
    return 1.0 / (1.0 + np.exp(-np.clip(z, -709.0, 36.0)))


SIGMOID_EDGES = [np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0, -709.0, 36.0,
                 np.nextafter(-709.0, -np.inf), np.nextafter(36.0, np.inf),
                 -1e308, 1e308, 5e-324, -5e-324, -710.0, 37.0, 1.5, 745.0, -745.0,
                 2.2250738585072014e-308 / 3, -2.2250738585072014e-308 / 3]


def test_sigmoid_clip_matches_min_max_clamp():
    z = np.array(SIGMOID_EDGES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = sigmoid_min_max(z)
        assert sigmoid_reference(z).tobytes() == expected.tobytes()
        assert sigmoid(z).tobytes() == expected.tobytes()
        # the four-pass kernel takes the negated input: -nan and nan swap too
        negated = -z
        assert _sigmoid_in_place(negated) is negated
        assert negated.tobytes() == expected.tobytes()
        for value in z:
            assert np.float64(sigmoid(value)).tobytes() == np.float64(
                sigmoid_min_max(value)).tobytes()


@settings(max_examples=60, deadline=None)
@given(z=hnp.arrays(np.float64, st.sampled_from([(1, 1), (128, 6), (180, 80)]),
                    elements=st.floats(allow_subnormal=True) | st.sampled_from(SIGMOID_EDGES)))
def test_sigmoid_in_place_matches_reference(z):
    before = z.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = sigmoid_reference(z)
        public = sigmoid(z)
        in_place = _sigmoid_in_place(z.copy())
        negated_reference = sigmoid_reference(-z)
    assert z.tobytes() == before            # the public sigmoid never writes its input
    assert public.tobytes() == expected.tobytes()
    # the four-pass kernel of negated inputs, given z, is the sigmoid of -z
    assert in_place.tobytes() == negated_reference.tobytes()


# --- forward pass ---

def activations_broadcast(net, x):
    """The kernel before the design matrix: the (P, 1) inputs broadcast
    against the hidden weights, with the min/max clamp."""
    j = net.n_hidden
    w_hidden, theta_hidden, w_output, theta_output = np.split(net.params, [j, 2 * j, 3 * j])
    hidden = sigmoid_min_max(x * w_hidden + theta_hidden)
    return hidden, sigmoid_min_max(hidden @ w_output[:, np.newaxis] + theta_output)


@settings(max_examples=200, deadline=None)
@given(rows=st.sampled_from([1, 2, 127, 128, 129, 180, 4096]),
       hidden=st.sampled_from([1, 2, 3, 6, 40, 80]),
       seed=st.integers(0, 2**32 - 1))
def test_activations_match_broadcast_bit_for_bit(rows, hidden, seed):
    """design @ [w; theta] rounds x w, then adds theta, like the broadcast:
    weights from 1e-8 to 1e3 of either sign, some of them +0 or -0."""
    rng = np.random.default_rng(seed)
    n = 3 * hidden + 1
    params = 10.0 ** rng.uniform(-8, 3, n) * rng.choice([-1.0, 1.0], n)
    zeros = rng.random(n) < 0.1
    params[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    net = make_net(params)
    x = rng.uniform(0, 1, (rows, 1))
    x[rng.random(rows) < 0.05] = rng.choice([0.0, 1.0])
    data = Dataset(x, np.full_like(x, 0.5))
    hidden_ref, out_ref = activations_broadcast(net, x)
    hidden_new, out_new = _activations(net.params, data.design)
    assert hidden_new.tobytes() == hidden_ref.tobytes()
    assert out_new.tobytes() == out_ref.tobytes()
    assert forward_batch(net, x).tobytes() == out_ref.tobytes()


def test_dataset_design_is_read_only_inputs_and_ones():
    data = random_data(np.random.default_rng(16), n=7)
    assert data.design.shape == (7, 2)
    assert not data.design.flags.writeable
    assert np.array_equal(data.design, np.hstack([data.inputs, np.ones_like(data.inputs)]))
    with pytest.raises(ValueError):
        data.design[0, 0] = 0.5


def test_forward_zero_network_gives_half():
    net = make_net(np.zeros(13))
    assert forward_batch(net, np.array([[0.3]]))[0, 0] == 0.5


def test_forward_hand_computed():
    # 1:2:1, hidden weights [1, -1], thresholds 0, output weights [1, 1],
    # output threshold 0, input 0: both hidden nodes give g(0)=0.5 so the
    # output is g(1) = 0.731058...
    net = make_net(np.array([1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
    expected = 1.0 / (1.0 + math.exp(-1.0))
    assert forward_batch(net, np.array([[0.0]]))[0, 0] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**31 - 1),
    x=st.floats(min_value=0.0, max_value=1.0),
    spread=st.floats(min_value=0.0, max_value=50.0),
)
def test_forward_output_strictly_inside_unit_interval(seed, x, spread):
    rng = np.random.default_rng(seed)
    net = make_net(rng.uniform(-spread, spread, 10))
    y = forward_batch(net, np.array([[x]]))[0, 0]
    assert 0.0 < y < 1.0


def test_forward_batch_matches_single():
    rng = np.random.default_rng(8)
    net = random_net(rng)
    xs = rng.uniform(0, 1, (6, 1))
    batch = forward_batch(net, xs)
    singles = np.array([forward_batch(net, row[np.newaxis])[0] for row in xs])
    # summation order may differ between the batched and single matmuls
    assert_allclose(batch, singles, rtol=0, atol=1e-14)


# --- MSE ---

def test_mse_exact_fit_is_zero():
    net = make_net(np.zeros(7))
    data = Dataset([[0.2], [0.8]], [[0.5], [0.5]])
    assert mse(net.params, data) == 0.0


def test_mse_single_pattern():
    # output is exactly 0.5 (zero network), target 0.9 -> (0.4)^2
    net = make_net(np.zeros(7))
    data = Dataset([[0.3]], [[0.9]])
    assert mse(net.params, data) == pytest.approx(0.16, abs=1e-15)


def test_empty_dataset_rejected():
    with pytest.raises(EmptyDataset):
        Dataset(np.zeros((0, 1)), np.zeros((0, 1)))


def test_dataset_requires_unit_interval():
    for inputs, targets in (([[1.5]], [[0.5]]), ([[0.5]], [[-0.1]]), ([[np.nan]], [[0.5]])):
        with pytest.raises(PatternOutOfRange) as info:
            Dataset(inputs, targets)
        assert isinstance(info.value, RescompError) and isinstance(info.value, ValueError)


def test_non_finite_params_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteArray) as info:
            make_net([0.0, 0.0, 0.0, bad])
        assert isinstance(info.value, RescompError) and isinstance(info.value, ValueError)


def test_shape_mismatch():
    # only 1:J:1 nets exist: a parameter vector is 3J + 1 long with J >= 1
    # (14 is a 1:3:2 net, (1, 4) a 1:1:1 vector as a row), and init_params
    # rejects a width below 1 before it draws weights from the (bad) seed
    for params in (np.zeros(1), np.zeros(5), np.zeros(14), np.zeros((1, 4))):
        with pytest.raises(ShapeMismatch):
            make_net(params)
    for hidden in (0, -1):
        with pytest.raises(ShapeMismatch):
            init_params(hidden, seed=-1)


# --- gradient ---

def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    net = random_net(rng, hidden=2)
    data = random_data(rng, n=1)
    analytic = gradient(net.params, data)
    numeric = fd_gradient(net, data)
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-10)
    assert rel.max() < 1e-6


def test_gradient_zero_at_exact_fit():
    net = make_net(np.zeros(10))
    data = Dataset([[0.25], [0.75]], [[0.5], [0.5]])
    assert np.max(np.abs(gradient(net.params, data))) < 1e-12


def test_gradient_invariant_under_pattern_duplication():
    rng = np.random.default_rng(12)
    net = random_net(rng)
    data = random_data(rng, n=3)
    doubled = Dataset(
        np.vstack([data.inputs, data.inputs]),
        np.vstack([data.targets, data.targets]),
    )
    assert_allclose(
        gradient(net.params, data),
        gradient(net.params, doubled),
        rtol=0,
        atol=1e-15,
    )


# --- residual jacobian ---

def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(13)
    net = random_net(rng, hidden=2)
    data = random_data(rng, n=3)
    _, analytic = residual_jacobian(net.params, data)
    numeric = fd_residual_jacobian(net, data)
    assert np.max(np.abs(analytic - numeric)) < 1e-6


def test_jacobian_gradient_consistency():
    # grad(MSE) = (2 / (P*I)) * J^T r for the residual convention r = D - O;
    # `gradient` contracts it without building J, so J^T r is the reference
    rng = np.random.default_rng(14)
    cases = [(random_net(rng, hidden=int(rng.integers(1, 5))),
              random_data(rng, n=int(rng.integers(1, 6)))) for _ in range(10)]
    # the width the fits run: 1:80:1 on 180 patterns, spread 500 saturating
    # hidden units
    net, data = random_net(rng, hidden=80, spread=500.0), random_data(rng, n=180)
    hidden, _out = _activations(net.params, data.design)
    assert np.any(hidden * (1.0 - hidden) < 1e-15)
    cases.append((net, data))
    for net, data in cases:
        r, jac = residual_jacobian(net.params, data)
        via_jac = (2.0 / r.size) * (jac.T @ r)
        direct = gradient(net.params, data)
        denom = np.maximum(np.abs(direct), 1e-300)
        mask = np.abs(direct) > 1e-12
        if mask.any():
            assert np.max(np.abs(via_jac - direct)[mask] / denom[mask]) < 1e-10
        assert np.max(np.abs(via_jac - direct)) < 1e-12


def test_zero_residuals_at_exact_fit():
    net = make_net(np.zeros(7))
    data = Dataset([[0.1], [0.9]], [[0.5], [0.5]])
    r, _ = residual_jacobian(net.params, data)
    assert np.all(r == 0.0)


@settings(max_examples=300, deadline=None)
@given(rows=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_mse_matches_np_mean(rows, seed):
    rng = np.random.default_rng(seed)
    net, data = random_net(rng, hidden=5, spread=10.0), random_data(rng, n=rows)
    diff = data.targets - forward_batch(net, data.inputs)
    assert mse(net.params, data) == float(np.mean(diff * diff))


def test_determinism_bitwise():
    rng = np.random.default_rng(15)
    net = random_net(rng)
    data = random_data(rng)
    assert mse(net.params, data) == mse(net.params, data)
    assert np.array_equal(gradient(net.params, data), gradient(net.params, data))
    r1, j1 = residual_jacobian(net.params, data)
    r2, j2 = residual_jacobian(net.params, data)
    assert np.array_equal(r1, r2) and np.array_equal(j1, j2)


@pytest.mark.parametrize("hidden", [1, 2, 80])
def test_jacobian_buffer_matches_concatenated_blocks(hidden):
    # the four blocks written into one buffer equal the same products
    # concatenated, bit for bit; spread 500 saturates most hidden units
    rng = np.random.default_rng(hidden)
    data = random_data(rng, n=60)
    for spread in (0.5, 5.0, 500.0):
        net = random_net(rng, hidden, spread)
        acts = _activations(net.params, data.design)
        h, out = acts
        if spread == 500.0:
            assert np.any(h * (1.0 - h) < 1e-15)
        s_out = out * (1.0 - out)
        chain = -(s_out * net.params[2 * hidden:3 * hidden] * (h * (1.0 - h)))
        expected = np.concatenate([chain * data.inputs, chain, -s_out * h, -s_out], axis=1)
        for carried in (None, acts):
            residuals, jac = residual_jacobian(net.params, data, carried)
            assert np.array_equal(jac, expected)
            assert np.array_equal(residuals, (data.targets - out).ravel())
        assert mse(net.params, data, acts) == mse(net.params, data)
        assert np.array_equal(gradient(net.params, data, acts),
                              gradient(net.params, data))


# --- dataset construction ---

def test_dataset_from_profile():
    profile = ErrorProfile(((0.0, -6.0), (180.0, 0.0), (359.0, 6.0)))
    data = dataset_from_profile(profile)
    assert_allclose(data.inputs[:, 0], [0.0, 0.5, 359.0 / 360.0])
    assert_allclose(data.targets[:, 0], [0.1, 0.5, 0.9], atol=1e-15)


@settings(max_examples=300, deadline=None)
@given(errors=st.lists(st.floats(-7.6, 7.6)
                       | st.sampled_from([-7.5, 7.5, -7.500000000000001, 7.500000000000001]),
                       min_size=1, max_size=5))
def test_dataset_from_profile_accepts_what_dataset_accepts(errors):
    """A named TargetOutOfRange exactly where the Dataset built from the same
    targets would reject them ([-6', 6'] maps onto [0.1, 0.9], so [0, 1] is
    [-7.5', 7.5'] up to rounding)."""
    profile = ErrorProfile(tuple((float(i), e) for i, e in enumerate(errors)))
    targets = TARGET_NORM.normalize(errors)[:, np.newaxis]
    try:
        Dataset(inputs=np.zeros_like(targets), targets=targets)
    except PatternOutOfRange:
        with pytest.raises(TargetOutOfRange, match=r"maps outside \[0, 1\] with "
                                                   r"normalization bounds \[-6\.0, 6\.0\]'$"):
            dataset_from_profile(profile)
    else:
        dataset_from_profile(profile)
