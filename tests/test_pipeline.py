import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescomp.caldata import CalibrationSample, CalibrationSet, stats
from rescomp.errors import CorruptFile, KindMismatch, OutOfRange, RescompError, UnsupportedVersion
from rescomp.fourier import FourierModel, FourierTerm
from rescomp.network import NetworkShape, init_network
from rescomp.optim import TrainingConfig
from rescomp.pipeline import (
    KIND_ANN,
    KIND_FOURIER,
    CompensationModel,
    ExperimentConfig,
    correct,
    evaluate,
    load_model,
    predict_error,
    run_experiment,
    save_model,
)
from rescomp.simgen import HarmonicSpec, HarmonicTerm, synthesize


def trained_like_net(seed=17, hidden=80):
    rng = np.random.default_rng(seed)
    net = init_network(NetworkShape(1, hidden, 1), seed=seed)
    return net.with_params(rng.uniform(-30, 30, net.n_params))


def fourier_model():
    return FourierModel(
        a0=0.123456789123456789,
        terms=(FourierTerm(1, 1.5, -0.25), FourierTerm(16, 1 / 3, 2e-7)),
    )


# --- persistence ---

def test_ann_roundtrip_bit_exact(tmp_path):
    net = trained_like_net()
    model = CompensationModel(KIND_ANN, "enc-1", net)
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.kind == KIND_ANN
    assert loaded.encoder_id == "enc-1"
    again = loaded.payload
    assert np.array_equal(again.to_vector(), net.to_vector())  # all 241 params
    assert again.input_norm == net.input_norm
    assert again.target_norm == net.target_norm


def test_fourier_roundtrip_bit_exact(tmp_path):
    model = CompensationModel(KIND_FOURIER, "enc-2", fourier_model())
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.payload == model.payload


def test_save_load_save_identical_bytes(tmp_path):
    model = CompensationModel(KIND_ANN, "enc-1", trained_like_net())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, model)
    save_model(p2, load_model(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel(KIND_FOURIER, "enc", fourier_model()))
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(CorruptFile):
        load_model(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel(KIND_FOURIER, "enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        load_model(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel(KIND_FOURIER, "enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["kind"] = "polynomial"
    path.write_text(json.dumps(doc))
    with pytest.raises(KindMismatch):
        load_model(path)


def test_kind_payload_mismatch_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel(KIND_FOURIER, "enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["kind"] = "ann"  # fourier payload under an ann tag
    path.write_text(json.dumps(doc))
    with pytest.raises(KindMismatch):
        load_model(path)


def test_wrong_array_length_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel(KIND_ANN, "enc", trained_like_net(hidden=4)))
    doc = json.loads(path.read_text())
    doc["hidden_weights"] = doc["hidden_weights"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_model(path)


@pytest.mark.parametrize("k, i", [(2, 1), (1, 2)])
def test_non_1_j_1_shape_rejected(tmp_path, k, i):
    # array lengths match the declared shape, so only the shape itself is wrong
    path = tmp_path / "model.json"
    save_model(path, CompensationModel(KIND_ANN, "enc", trained_like_net(hidden=4)))
    doc = json.loads(path.read_text())
    doc["shape"] = {"n_inputs": k, "n_hidden": 4, "n_outputs": i}
    doc["hidden_weights"] = [0.25] * (4 * k)
    doc["output_weights"] = [0.25] * (4 * i)
    doc["output_thresholds"] = [0.0] * i
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_model(path)


@pytest.mark.parametrize("kind, field, value", [
    (KIND_ANN, "format_version", True),
    (KIND_ANN, "n_inputs", True),
    (KIND_ANN, "n_hidden", 4.0),
    (KIND_ANN, "n_outputs", "1"),
    (KIND_FOURIER, "n", 16.9),
    (KIND_FOURIER, "n", True),
])
def test_non_integer_field_rejected(tmp_path, kind, field, value):
    path = tmp_path / "model.json"
    payload = trained_like_net(hidden=4) if kind == KIND_ANN else fourier_model()
    save_model(path, CompensationModel(kind, "enc", payload))
    doc = json.loads(path.read_text())
    if field == "n":
        doc["terms"][1]["n"] = value
    elif field.startswith("n_"):
        doc["shape"][field] = value
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_model(path)


@pytest.mark.parametrize("key", ["input_norm", "target_norm"])
@pytest.mark.parametrize("lo, hi", [(-math.inf, math.inf), (-6.0, math.nan)])
def test_non_finite_norm_bounds_rejected(tmp_path, key, lo, hi):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel(KIND_ANN, "enc", trained_like_net(hidden=4)))
    doc = json.loads(path.read_text())
    doc[key]["lo"], doc[key]["hi"] = lo, hi
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_model(path)


# values that have broken loaders: zero, a duplicate order, an order past
# 2**53, an int too large for a float, non-finite floats, a bool and a string
# where numbers belong
EDGE_VALUES = st.sampled_from([0, 1, -1, 2 ** 53, 2 ** 53 + 1, 10 ** 400, 1e308, math.nan,
                               math.inf, True, "1", None, [], {}])
JSON_VALUES = EDGE_VALUES | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8,
)


def json_paths(node, prefix=()):
    """The key path of every value inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from json_paths(value, prefix + (key,))


@st.composite
def mutated_model_file(draw, texts):
    """A valid model file with one value at any depth deleted or replaced by
    any JSON value, then maybe truncated."""
    doc = json.loads(draw(st.sampled_from(texts)))
    *path, key = draw(st.sampled_from(list(json_paths(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(JSON_VALUES)
    blob = json.dumps(doc).encode()
    return blob[:draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@pytest.fixture(scope="module")
def model_texts(tmp_path_factory):
    texts = []
    for kind, payload in ((KIND_ANN, trained_like_net(hidden=3)), (KIND_FOURIER, fourier_model())):
        path = tmp_path_factory.mktemp("docs") / "model.json"
        save_model(path, CompensationModel(kind, "enc", payload))
        texts.append(path.read_text())
    return texts


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_model_fuzz(tmp_path_factory, model_texts, data):
    # any bytes either load or raise a RescompError: no bare ValueError,
    # OverflowError or RecursionError
    blob = data.draw(st.binary(max_size=200) | mutated_model_file(model_texts))
    path = tmp_path_factory.getbasetemp() / "fuzz_model.json"
    path.write_bytes(blob)
    try:
        model = load_model(path)
    except RescompError:
        return
    # and every model that loads corrects an angle and an array of them, or
    # raises a RescompError (a predicted error past the float range)
    for angles in (10.0, np.array([0.0, 123.4, 359.99])):
        try:
            corrected = correct(model, angles)
        except RescompError:
            continue
        assert np.all((0.0 <= corrected) & (corrected < 360.0))


@pytest.mark.parametrize("order, loads", [
    pytest.param(2 ** 53, True, id="2**53"),
    pytest.param(2 ** 53 + 1, False, id="2**53+1"),
    pytest.param(10 ** 400, False, id="10**400"),
])
def test_fourier_order_bounded(tmp_path, order, loads):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel(KIND_FOURIER, "enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["terms"][1]["n"] = order
    path.write_text(json.dumps(doc))
    if loads:
        assert 0.0 <= correct(load_model(path), 10.0) < 360.0
    else:
        with pytest.raises(CorruptFile, match=r"^fourier term 1: order n is above 2\*\*53$"):
            load_model(path)


def test_constructor_rejects_mismatched_payload():
    with pytest.raises(KindMismatch):
        CompensationModel(KIND_ANN, "enc", fourier_model())
    with pytest.raises(KindMismatch):
        CompensationModel("lookup-table", "enc", fourier_model())


# --- prediction and correction ---

def test_predict_constant_fourier():
    model = CompensationModel(KIND_FOURIER, "enc", FourierModel(1.0, ()))
    assert predict_error(model, 0.0) == 1.0
    assert predict_error(model, 213.7) == 1.0


def test_predict_wraps_angle():
    model = CompensationModel(KIND_ANN, "enc", trained_like_net())
    assert predict_error(model, 0.0) == predict_error(model, 360.0)
    assert predict_error(model, -10.0) == predict_error(model, 350.0)


def test_correct_zero_model_is_identity():
    model = CompensationModel(KIND_FOURIER, "enc", FourierModel(0.0, ()))
    for theta in (0.0, 100.0, 359.99):
        assert correct(model, theta) == theta


def test_correct_wraps_across_seam():
    # +3' predicted at 0.01 deg: corrected angle crosses to 359.96
    model = CompensationModel(KIND_FOURIER, "enc", FourierModel(3.0, ()))
    assert correct(model, 0.01) == pytest.approx(359.96, abs=1e-12)


def test_correct_hand_value():
    model = CompensationModel(KIND_FOURIER, "enc", FourierModel(-1.2, ()))
    assert correct(model, 100.0) == pytest.approx(100.02, abs=1e-12)


def test_array_non_finite_angle_named():
    model = CompensationModel(KIND_FOURIER, "enc", fourier_model())
    for call in (predict_error, correct):
        with pytest.raises(OutOfRange, match=r"^angle -inf is not finite$"):
            call(model, np.array([10.0, -math.inf, math.nan]))


@settings(max_examples=200)
@given(theta=st.floats(min_value=-720.0, max_value=720.0))
def test_correction_identity(theta):
    model = CompensationModel(
        KIND_FOURIER, "enc", FourierModel(0.8, (FourierTerm(2, 1.1, -0.4),))
    )
    corrected = correct(model, theta)
    predicted = predict_error(model, theta)
    assert 0.0 <= corrected < 360.0
    # corrected + error/60 == theta (mod 360)
    gap = (corrected + predicted / 60.0 - theta) % 360.0
    assert min(gap, 360.0 - gap) < 1e-12


# --- evaluation ---

def zero_error_calset(n=8):
    samples = tuple(
        CalibrationSample(float(i * 360 // n), float(i * 360 // n)) for i in range(n)
    )
    return CalibrationSet(samples, "perfect", "now")


def test_evaluate_perfect_model():
    cal = zero_error_calset()
    model = CompensationModel(KIND_FOURIER, "perfect", FourierModel(0.0, ()))
    report = evaluate(model, cal)
    assert report.post_stats.mae_arcmin == 0.0
    assert report.post_stats.rms_arcmin == 0.0
    assert report.max_abs_residual_arcmin == 0.0


def test_predict_error_tracks_training_point(arch1_data, arch1_lm80):
    model = CompensationModel(KIND_ANN, "arch1", arch1_lm80[0])
    profile = dict(arch1_data["train_prof"].points)
    angle = min(profile, key=lambda a: abs(a - 10.0))
    assert abs(predict_error(model, angle) - profile[angle]) <= 0.3


def test_evaluate_report_consistency(arch1_data, arch1_lm80):
    model = CompensationModel(KIND_ANN, "arch1", arch1_lm80[0])
    report = evaluate(model, arch1_data["test_set"])
    residuals = [r for _a, _o, _p, r in report.rows]
    n = len(residuals)
    assert report.post_stats.n_samples == n
    assert report.post_stats.mae_arcmin == sum(abs(r) for r in residuals) / n
    assert report.post_stats.rms_arcmin == math.sqrt(
        sum(r * r for r in residuals) / n
    )
    assert report.max_abs_residual_arcmin == max(abs(r) for r in residuals)
    # residual convention: predicted minus observed
    for _a, obs, pred, res in report.rows:
        assert res == pred - obs


# --- experiment orchestration ---

SMALL_CFG = ExperimentConfig(
    hidden=8,
    training=TrainingConfig(max_iterations=60, stall_window=20, seed=42),
)


def small_cal():
    spec = HarmonicSpec(
        terms=(HarmonicTerm(0, 0.4, 0.2), HarmonicTerm(1, 1.2, 0.7), HarmonicTerm(2, 0.6, -1.0)),
        noise_sigma_arcmin=0.05,
        seed=7,
    )
    return synthesize(spec, grid_step_deg=1.0, encoder_id="small")


def test_run_experiment_writes_bundle(tmp_path):
    result = run_experiment(small_cal(), tmp_path / "out", SMALL_CFG)
    expected = {
        "ann_model.json", "fourier_model.json", "history.csv",
        "residuals_ann.csv", "residuals_fourier.csv", "spectrum.csv",
        "comparison.csv", "report.json",
    }
    assert set(result.files) == expected
    for name in expected:
        assert (tmp_path / "out" / name).exists()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["n_train"] == 180 and report["n_test"] == 180
    assert report["ann"]["iterations_run"] == result.history.iterations_run


def test_run_experiment_deterministic(tmp_path):
    r1 = run_experiment(small_cal(), tmp_path / "a", SMALL_CFG)
    r2 = run_experiment(small_cal(), tmp_path / "b", SMALL_CFG)
    assert r1.files == r2.files
    for name in r1.files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_experiment_with_prune(tmp_path):
    cfg = ExperimentConfig(
        hidden=6,
        prune=True,
        training=TrainingConfig(max_iterations=40, stall_window=15, seed=42),
    )
    result = run_experiment(small_cal(), tmp_path / "out", cfg)
    assert result.prune_report is not None
    assert "prune_report.json" in result.files
    doc = json.loads((tmp_path / "out" / "prune_report.json").read_text())
    assert doc["initial_hidden"] == 6
    assert 1 <= doc["pruned_hidden"] <= 6
    assert len(doc["spectrum_initial"]) == 6


def test_run_experiment_loadable_models(tmp_path):
    result = run_experiment(small_cal(), tmp_path / "out", SMALL_CFG)
    ann = load_model(tmp_path / "out" / "ann_model.json")
    fou = load_model(tmp_path / "out" / "fourier_model.json")
    assert np.array_equal(ann.payload.to_vector(), result.ann_model.payload.to_vector())
    assert fou.payload == result.fourier_model.payload
