import dataclasses
import json
import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescomp.caldata import CalibrationSet, ErrorProfile
from rescomp.config import MAX_HIDDEN, ExperimentConfig, TrainingConfig
from rescomp.errors import (
    BadConfig,
    CorruptFile,
    KindMismatch,
    OutOfRange,
    RescompError,
    ShapeMismatch,
    TargetOutOfRange,
    UnsupportedVersion,
)
from rescomp.experiment import fit_fourier_baseline, fit_network, run_experiment
from rescomp.fourier import MAX_ORDER, FourierModel, FourierTerm
from rescomp.network import (
    CHUNK_ELEMENTS,
    INPUT_NORM,
    TARGET_NORM,
    Network,
    _activations,
    _design,
    chunk_rows,
    dataset_from_profile,
    init_params,
)
from rescomp.optim import train_lm
from rescomp.pipeline import (
    KIND_ANN,
    KIND_FOURIER,
    CompensationModel,
    correct,
    evaluate,
    load_model,
    predict_error,
    save_model,
)
from rescomp.prune import prune_and_retrain
from rescomp.simgen import HarmonicSpec, HarmonicTerm, synthesize
from tests.conftest import make_net


def trained_like_net(seed=17, hidden=80):
    rng = np.random.default_rng(seed)
    return make_net(rng.uniform(-30, 30, 3 * hidden + 1))


def fourier_model():
    return FourierModel(
        a0=0.123456789123456789,
        terms=(FourierTerm(1, 1.5, -0.25), FourierTerm(16, 1 / 3, 2e-7)),
    )


# --- persistence ---

def test_ann_roundtrip_bit_exact(tmp_path):
    net = trained_like_net()
    model = CompensationModel("enc-1", net)
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.kind == KIND_ANN
    assert loaded.encoder_id == "enc-1"
    again = loaded.payload
    assert np.array_equal(again.params, net.params)  # all 241 params


def test_fourier_roundtrip_bit_exact(tmp_path):
    model = CompensationModel("enc-2", fourier_model())
    path = tmp_path / "model.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.payload == model.payload


def test_save_load_save_identical_bytes(tmp_path):
    model = CompensationModel("enc-1", trained_like_net())
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(p1, model)
    save_model(p2, load_model(p1))
    assert p1.read_bytes() == p2.read_bytes()


# The model file format, key order and layout included, as the text of two
# fixed models' files: save_model must write exactly these bytes, and files
# already written in this format must keep loading, so the text changes only
# with a new format_version.
PINNED_ANN_FILE = """\
{
  "format_version": 1,
  "kind": "ann",
  "encoder_id": "pin",
  "shape": {
    "n_inputs": 1,
    "n_hidden": 2,
    "n_outputs": 1
  },
  "input_norm": {
    "lo": 0.0,
    "hi": 360.0,
    "out_lo": 0.0,
    "out_hi": 1.0
  },
  "target_norm": {
    "lo": -6.0,
    "hi": 6.0,
    "out_lo": 0.1,
    "out_hi": 0.9
  },
  "hidden_weights": [
    0.75,
    -1.25
  ],
  "hidden_thresholds": [
    0.5,
    -0.25
  ],
  "output_weights": [
    1.5,
    -2.0
  ],
  "output_thresholds": [
    0.125
  ]
}
"""
PINNED_FOURIER_FILE = """\
{
  "format_version": 1,
  "kind": "fourier",
  "encoder_id": "pin",
  "a0": 0.5,
  "terms": [
    {
      "n": 1,
      "a": 1.25,
      "b": -0.75
    },
    {
      "n": 3,
      "a": 0.1,
      "b": 0.2
    }
  ]
}
"""


def pinned_case(kind):
    """The pinned file text of a model kind and the model it holds."""
    if kind == KIND_ANN:
        net = make_net(np.array([0.75, -1.25, 0.5, -0.25, 1.5, -2.0, 0.125]))
        return PINNED_ANN_FILE, CompensationModel("pin", net)
    series = FourierModel(0.5, (FourierTerm(1, 1.25, -0.75), FourierTerm(3, 0.1, 0.2)))
    return PINNED_FOURIER_FILE, CompensationModel("pin", series)


@pytest.mark.parametrize("kind", [KIND_ANN, KIND_FOURIER])
def test_saved_model_file_matches_pinned_text(tmp_path, kind):
    text, model = pinned_case(kind)
    path = tmp_path / "model.json"
    save_model(path, model)
    assert path.read_bytes() == text.encode("utf-8")


@pytest.mark.parametrize("kind", [KIND_ANN, KIND_FOURIER])
def test_pinned_model_file_predicts_bit_identically(tmp_path, kind):
    text, model = pinned_case(kind)
    path = tmp_path / "model.json"
    path.write_bytes(text.encode("utf-8"))
    loaded = load_model(path)
    assert (loaded.kind, loaded.encoder_id) == (kind, "pin")
    angles = np.linspace(0.0, 360.0, 721)
    assert predict_error(loaded, angles).tobytes() == predict_error(model, angles).tobytes()
    for angle in (0.0, 123.456, 359.999):
        assert predict_error(loaded, angle) == predict_error(model, angle)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", fourier_model()))
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(CorruptFile):
        load_model(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(UnsupportedVersion):
        load_model(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["kind"] = "polynomial"
    path.write_text(json.dumps(doc))
    with pytest.raises(KindMismatch):
        load_model(path)


@pytest.mark.parametrize("kind", [["ann"], {"ann": 1}, None, 1], ids=repr)
def test_non_string_kind_rejected(tmp_path, kind):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", trained_like_net(hidden=2)))
    doc = json.loads(path.read_text())
    doc["kind"] = kind
    path.write_text(json.dumps(doc))
    with pytest.raises(KindMismatch, match=r"^unknown model kind "):
        load_model(path)


def test_kind_payload_mismatch_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["kind"] = "ann"  # fourier payload under an ann tag
    path.write_text(json.dumps(doc))
    with pytest.raises(KindMismatch):
        load_model(path)


def test_wrong_array_length_rejected(tmp_path):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", trained_like_net(hidden=4)))
    doc = json.loads(path.read_text())
    doc["hidden_weights"] = doc["hidden_weights"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_model(path)


@pytest.mark.parametrize("k, i", [(2, 1), (1, 2)])
def test_non_1_j_1_shape_rejected(tmp_path, k, i):
    # array lengths match the declared shape, so only the shape itself is wrong
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", trained_like_net(hidden=4)))
    doc = json.loads(path.read_text())
    doc["shape"] = {"n_inputs": k, "n_hidden": 4, "n_outputs": i}
    doc["hidden_weights"] = [0.25] * (4 * k)
    doc["output_weights"] = [0.25] * (4 * i)
    doc["output_thresholds"] = [0.0] * i
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_model(path)


@pytest.mark.parametrize("n_hidden", [0, -1])
def test_empty_hidden_layer_rejected(tmp_path, n_hidden):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", trained_like_net(hidden=4)))
    doc = json.loads(path.read_text())
    doc["shape"]["n_hidden"] = n_hidden
    for key in ("hidden_weights", "hidden_thresholds", "output_weights"):
        doc[key] = []
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match=r"^bad shape: need a 1:J:1 network with J >= 1"):
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
    save_model(path, CompensationModel("enc", payload))
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


@pytest.mark.parametrize("kind, path, value", [
    (KIND_FOURIER, ("a0",), "0.5"),
    (KIND_FOURIER, ("terms", 0, "a"), True),
    (KIND_FOURIER, ("terms", 1, "b"), "2"),
    (KIND_ANN, ("hidden_weights", 0), "0.5"),
    (KIND_ANN, ("output_thresholds", 0), False),
    (KIND_ANN, ("target_norm", "lo"), "-6"),
    (KIND_ANN, ("input_norm", "out_hi"), True),
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None)
def test_non_numeric_field_rejected(tmp_path, kind, path, value):
    """A JSON string or bool where a number belongs, which float() would take."""
    assert_field_named(tmp_path, kind, path, value)


def assert_field_named(tmp_path, kind, path, value):
    """A saved 1:4:1 net or `fourier_model()` with `value` at the key path
    `path` fails to load with CorruptFile naming the path's last key."""
    file = tmp_path / "model.json"
    payload = trained_like_net(hidden=4) if kind == KIND_ANN else fourier_model()
    save_model(file, CompensationModel("enc", payload))
    doc = json.loads(file.read_text())
    *parents, key = path
    node = doc
    for step in parents:
        node = node[step]
    node[key] = value
    file.write_text(json.dumps(doc))
    name = [step for step in path if isinstance(step, str)][-1]
    with pytest.raises(CorruptFile, match=f"^non-numeric or out-of-range '{name}': "):
        load_model(file)


# every float a model file holds
FLOAT_FIELDS = [
    (KIND_FOURIER, ("a0",)),
    *((KIND_FOURIER, ("terms", i, c)) for i in (0, 1) for c in ("a", "b")),
    *((KIND_ANN, (key, 0)) for key in ("hidden_weights", "hidden_thresholds",
                                       "output_weights", "output_thresholds")),
    *((KIND_ANN, (norm, bound)) for norm in ("input_norm", "target_norm")
      for bound in ("lo", "hi", "out_lo", "out_hi")),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("kind, path", FLOAT_FIELDS,
                         ids=["-".join(map(str, path)) for _kind, path in FLOAT_FIELDS])
def test_non_finite_field_named(tmp_path, kind, path, value):
    assert_field_named(tmp_path, kind, path, value)


@pytest.mark.parametrize("value", [None, 7, True, ["enc"], {"id": "enc"}], ids=repr)
def test_non_string_encoder_id_rejected(tmp_path, value):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["encoder_id"] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match=r"^non-string 'encoder_id': "):
        load_model(path)
    del doc["encoder_id"]  # a file without the key loads as "unknown"
    path.write_text(json.dumps(doc))
    assert load_model(path).encoder_id == "unknown"


@pytest.mark.parametrize("key", ["input_norm", "target_norm"])
@pytest.mark.parametrize("lo, hi", [(-math.inf, math.inf), (-6.0, math.nan),
                                    (-1e308, 1e308)])  # finite bounds, span past the float range
def test_non_finite_norm_bounds_rejected(tmp_path, key, lo, hi):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", trained_like_net(hidden=4)))
    doc = json.loads(path.read_text())
    doc[key]["lo"], doc[key]["hi"] = lo, hi
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile):
        load_model(path)


def write_ann_with_map(tmp_path, key, bounds):
    """A saved 1:4:1 model file whose map `key` holds `bounds`."""
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", trained_like_net(hidden=4)))
    doc = json.loads(path.read_text())
    doc[key] = dict(zip(("lo", "hi", "out_lo", "out_hi"), bounds))
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("key, bounds", [
    # finite spans and scale factors and the out range of `TARGET_NORM`, but
    # the net's output 0 would land past the float range: -1.7e308 - 1.7e308 / 8
    ("target_norm", (-1.7e308, -3e307, 0.1, 0.9)),
    # finite, but not the one map every fit uses
    ("input_norm", (0.0, 360.0, 0.0, 0.5)),
    ("target_norm", (-6.0, 6.0, 0.2, 0.8)),
    ("target_norm", (-8.0, 8.0, 0.1, 0.9)),
])
def test_norm_map_past_float_range_rejected(tmp_path, key, bounds):
    path = write_ann_with_map(tmp_path, key, bounds)
    norm = INPUT_NORM if key == "input_norm" else TARGET_NORM
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        with pytest.raises(CorruptFile,
                           match=rf"^ann model 'enc': {re.escape(f'{key} must be {norm}')}$"):
            load_model(path)


def overflow_edge_net(hidden_weight, hidden_threshold, output_weight, output_threshold):
    """A 1:4:1 net with the given hidden weights, hidden thresholds and output
    threshold, and output weights (w, w, -w, -w)."""
    w = output_weight
    return make_net([hidden_weight] * 4 + [hidden_threshold] * 4
                    + [w, w, -w, -w, output_threshold])


@pytest.mark.parametrize("params, loads", [
    # predicted 7.5' at 10 deg alone and 0' at 10 deg in a batch, with a
    # numpy overflow warning, when it loaded
    ((1.0, 50.0, 1.7e308, 0.0), False),
    # hidden 1e308 + 0.79e308 and output 4 * 0.44e308 + 0.03e308, both
    # 1.79e308, under the float maximum of about 1.798e308
    ((1e308, 0.79e308, 0.44e308, 0.03e308), True),
    # one step past each of those bounds, to 1.8e308
    ((1e308, 0.8e308, 0.44e308, 0.03e308), False),
    ((1e308, 0.79e308, 0.44e308, 0.04e308), False),
], ids=["outputs-overflow", "at-bound", "hidden-past-bound", "output-past-bound"])
def test_ann_forward_pass_past_float_range_rejected(tmp_path, params, loads):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", overflow_edge_net(*params)))
    if loads:
        # the suite turns a numpy RuntimeWarning into an error
        model = load_model(path)
        alone, batch = predict_error(model, 10.0), predict_error(model, np.full(9, 10.0))
        assert math.isfinite(alone) and np.all(batch == alone)
    else:
        with pytest.raises(CorruptFile, match=r"^ann model 'enc': the forward pass can overflow$"):
            load_model(path)


@pytest.mark.parametrize("a, loads", [(0.5e308, True), (1e308, False)])
def test_fourier_series_past_float_range_rejected(tmp_path, a, loads):
    # |a0| + sum(|a| + |b|) bounds the series: 1.5e308 loads, 2e308 does not
    path = tmp_path / "model.json"
    series = FourierModel(1e308, (FourierTerm(1, a, 0.0),))
    save_model(path, CompensationModel("enc", series))
    if loads:
        assert 0.0 <= correct(load_model(path), 10.0) < 360.0
    else:
        with pytest.raises(CorruptFile, match=r"^fourier model 'enc': the series can overflow$"):
            load_model(path)


# values that have broken loaders: zero, a duplicate order, an order past
# 2**20 or 2**53, an int too large for a float, non-finite floats, a bool and
# a string where numbers belong
EDGE_VALUES = st.sampled_from([0, 1, -1, 2 ** 20, 2 ** 20 + 1, 2 ** 53, 2 ** 53 + 1, 10 ** 400,
                               1e308, math.nan, math.inf, True, "1", None, [], {}])
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
    for payload in (trained_like_net(hidden=3), fourier_model()):
        path = tmp_path_factory.mktemp("docs") / "model.json"
        save_model(path, CompensationModel("enc", payload))
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
    pytest.param(MAX_ORDER, True, id="2**20"),
    pytest.param(MAX_ORDER + 1, False, id="2**20+1"),
    pytest.param(2 ** 53, False, id="2**53"),
    pytest.param(10 ** 400, False, id="10**400"),
])
def test_fourier_order_bounded(tmp_path, order, loads):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", fourier_model()))
    doc = json.loads(path.read_text())
    doc["terms"][1]["n"] = order
    path.write_text(json.dumps(doc))
    if loads:
        assert 0.0 <= correct(load_model(path), 10.0) < 360.0
    else:
        with pytest.raises(CorruptFile, match=r"^bad fourier payload: term orders must be "
                                              r"distinct integers in \[1, 2\*\*20\], got \[1, "):
            load_model(path)


def test_top_order_with_bound_just_inside_the_limit_corrects_finitely(tmp_path):
    # the largest coefficients the overflow guard admits at the largest order
    a = math.nextafter(sys.float_info.max / (2 * (1 + 2 ** -20)), 0.0)
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", FourierModel(0.0, (FourierTerm(MAX_ORDER, a, a),))))
    doc = json.loads(path.read_text())
    doc["terms"][0]["a"] = math.nextafter(sys.float_info.max / (1 + 2 ** -20) - a, math.inf)
    path.with_name("past.json").write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match=r"^fourier model 'enc': the series can overflow$"):
        load_model(path.with_name("past.json"))
    model = load_model(path)
    angles = np.random.default_rng(65).uniform(0.0, 360.0, 10_000)
    assert np.all(np.isfinite(predict_error(model, angles)))
    corrected = correct(model, angles)
    assert np.all((0.0 <= corrected) & (corrected < 360.0))


@pytest.mark.parametrize("payload, key, value, message", [
    (fourier_model(), "terms", {}, r"^fourier 'terms' must be a JSON list, got \{\}$"),
    (fourier_model(), "terms", "", r"^fourier 'terms' must be a JSON list, got ''$"),
    (fourier_model(), "shape", {"n_inputs": 1, "n_hidden": 1, "n_outputs": 1},
     r"^unknown key 'shape' in a model file of kind 'fourier'$"),
    (fourier_model(), "a1", 0.5, r"^unknown key 'a1' in a model file of kind 'fourier'$"),
    (trained_like_net(hidden=2), "a0", 0.5, r"^unknown key 'a0' in a model file of kind 'ann'$"),
    (trained_like_net(hidden=2), "comment", "x", r"^unknown key 'comment' in a model file of kind 'ann'$"),
], ids=["terms-object", "terms-string", "ann-key-in-fourier", "a1", "fourier-key-in-ann",
        "comment"])
def test_model_file_schema_is_strict(tmp_path, payload, key, value, message):
    path = tmp_path / "model.json"
    save_model(path, CompensationModel("enc", payload))
    doc = json.loads(path.read_text())
    doc[key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match=message):
        load_model(path)


def test_constructor_rejects_mismatched_payload():
    # the kind is the payload's type; any other payload has no kind
    assert CompensationModel("enc", fourier_model()).kind == KIND_FOURIER
    assert CompensationModel("enc", trained_like_net(hidden=2)).kind == KIND_ANN
    for payload in ("lookup-table", None, trained_like_net(hidden=2).params):
        with pytest.raises(KindMismatch, match=r"^no model kind holds a (str|NoneType|ndarray) payload$"):
            CompensationModel("enc", payload)


# --- prediction and correction ---

def test_predict_constant_fourier():
    model = CompensationModel("enc", FourierModel(1.0, ()))
    assert predict_error(model, 0.0) == 1.0
    assert predict_error(model, 213.7) == 1.0


def test_predict_wraps_angle():
    model = CompensationModel("enc", trained_like_net())
    assert predict_error(model, 0.0) == predict_error(model, 360.0)
    assert predict_error(model, -10.0) == predict_error(model, 350.0)


def test_correct_zero_model_is_identity():
    model = CompensationModel("enc", FourierModel(0.0, ()))
    for theta in (0.0, 100.0, 359.99):
        assert correct(model, theta) == theta


def test_correct_wraps_across_seam():
    # +3' predicted at 0.01 deg: corrected angle crosses to 359.96
    model = CompensationModel("enc", FourierModel(3.0, ()))
    assert correct(model, 0.01) == pytest.approx(359.96, abs=1e-12)


def test_correct_hand_value():
    model = CompensationModel("enc", FourierModel(-1.2, ()))
    assert correct(model, 100.0) == pytest.approx(100.02, abs=1e-12)


def test_array_non_finite_angle_named():
    model = CompensationModel("enc", fourier_model())
    for call in (predict_error, correct):
        with pytest.raises(OutOfRange, match=r"^angle -inf is not finite$"):
            call(model, np.array([10.0, -math.inf, math.nan]))


@pytest.mark.parametrize("shape", [(1, 2), (2, 2)])
@pytest.mark.parametrize("payload", [trained_like_net(hidden=6), fourier_model()],
                         ids=["ann", "fourier"])
def test_batch_of_more_than_one_dimension_named(payload, shape):
    model = CompensationModel("enc", payload)
    angles = np.arange(1.0, 1.0 + math.prod(shape)).reshape(shape)
    message = re.escape(f"need one angle or a 1-D batch of angles, got shape {shape}")
    for call in (predict_error, correct):
        with pytest.raises(ShapeMismatch, match=message):
            call(model, angles)


@settings(max_examples=200)
@given(theta=st.floats(min_value=-720.0, max_value=720.0))
def test_correction_identity(theta):
    model = CompensationModel("enc", FourierModel(0.8, (FourierTerm(2, 1.1, -0.4),)))
    corrected = correct(model, theta)
    predicted = predict_error(model, theta)
    assert 0.0 <= corrected < 360.0
    # corrected + error/60 == theta (mod 360)
    gap = (corrected + predicted / 60.0 - theta) % 360.0
    assert min(gap, 360.0 - gap) < 1e-12


# --- evaluation ---

def chunk_edge_counts(rows):
    """Batch lengths around a chunk of `rows`: empty and tiny batches, a
    one-row remainder after one to eight chunks, longer remainders, and the
    1 024-line block of `correct --stdin`."""
    return (0, 1, 2, 9, rows - 1, rows, *(k * rows + 1 for k in range(1, 9)),
            rows + 8, rows + 9, 1023, 1024, 1025)


def test_chunk_rows_leave_room_for_a_one_row_remainder():
    """Below J = 1 778 the last chunk with a one-row remainder added stays
    within CHUNK_ELEMENTS; at and above it the 8-row floor decides."""
    for width in range(1, 1778):
        rows = chunk_rows(width)
        assert rows % 8 == 0 and (rows + 1) * width <= CHUNK_ELEMENTS, width
    assert chunk_rows(80) == 192


# Last angles at which a one-row product of the test's net of that width
# rounds differently from the matrix-vector kernel of a longer batch (seen
# with OpenBLAS at one thread), so a one-row remainder run as its own chunk
# changes the last value.  About one angle in ten does so at J = 80 and one
# in twenty-five at J = 2, so eight random draws can miss: those of J = 80 do.
ONE_ROW_REMAINDER_ANGLES = {2: 41.71162048947731, 80: 342.1669306773367}


@pytest.mark.parametrize("hidden", [1, 2, 6, 40, 80, 199, 1000, MAX_HIDDEN])
def test_predict_error_ann_chunks_bit_identical_to_one_call(hidden):
    """J = 2 is the first width whose hidden layer is a matrix product; at
    MAX_HIDDEN a chunk is 8 rows, and a one-row remainder makes it 9."""
    rng = np.random.default_rng(hidden)
    net = make_net(rng.uniform(-3.0, 3.0, 3 * hidden + 1))
    model = CompensationModel("chunks", net)
    rows = chunk_rows(hidden)
    for n in chunk_edge_counts(rows):
        angles = rng.uniform(0.0, 360.0, n)
        if n % rows == 1 and hidden in ONE_ROW_REMAINDER_ANGLES:
            angles[-1] = ONE_ROW_REMAINDER_ANGLES[hidden]
        x = INPUT_NORM.normalize(angles)[:, np.newaxis]
        whole = TARGET_NORM.denormalize(_activations(net.params, _design(x))[1][:, 0])
        assert predict_error(model, angles).tobytes() == whole.tobytes()


def test_predict_error_peak_memory_is_one_chunk():
    """Unchunked, the hidden block alone is 2.6 MB for 4 096 angles at J = 80
    and 66 MB for 4 097 angles at J = 2 000, where the one-row remainder
    joins the last 8-row chunk in a 9-row buffer."""
    for hidden, n in ((80, 4096), (MAX_HIDDEN, 4097)):
        model = CompensationModel("peak", make_net(init_params(hidden, seed=0)))
        angles = np.linspace(0.0, 360.0, n, endpoint=False)
        tracemalloc.start()
        try:
            predict_error(model, angles)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024, hidden


def zero_error_calset(n=8):
    angles = [float(i * 360 // n) for i in range(n)]
    return CalibrationSet(angles, angles, "perfect")


def test_evaluate_perfect_model():
    cal = zero_error_calset()
    model = CompensationModel("perfect", FourierModel(0.0, ()))
    report = evaluate(model, cal)
    assert report.post_stats.mae_arcmin == 0.0
    assert report.post_stats.rms_arcmin == 0.0
    assert report.max_abs_residual_arcmin == 0.0


def test_predict_error_tracks_training_point(arch1_data, arch1_lm80):
    model = CompensationModel("arch1", arch1_lm80[0])
    profile = dict(arch1_data["train_prof"].points.tolist())
    angle = min(profile, key=lambda a: abs(a - 10.0))
    assert abs(predict_error(model, angle) - profile[angle]) <= 0.3


def test_evaluate_report_consistency(arch1_data, arch1_lm80):
    model = CompensationModel("arch1", arch1_lm80[0])
    report = evaluate(model, arch1_data["test_set"])
    assert report.rows.shape == (len(arch1_data["test_set"]), 4)
    assert not report.rows.flags.writeable
    residuals = report.rows[:, 3].tolist()
    n = len(residuals)
    assert report.post_stats.n_samples == n
    # numpy's pairwise sums against exactly rounded ones: a few ulps apart at most
    assert report.post_stats.mae_arcmin == pytest.approx(
        math.fsum(abs(r) for r in residuals) / n, rel=1e-14, abs=0.0)
    assert report.post_stats.rms_arcmin == pytest.approx(
        math.sqrt(math.fsum(r * r for r in residuals) / n), rel=1e-14, abs=0.0)
    assert report.max_abs_residual_arcmin == max(abs(r) for r in residuals)
    # residual convention: predicted minus observed
    for _a, obs, pred, res in report.rows.tolist():
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


def test_hidden_bound():
    assert ExperimentConfig(hidden=MAX_HIDDEN).hidden == MAX_HIDDEN
    with pytest.raises(BadConfig, match=f"hidden must be <= {MAX_HIDDEN}, got {MAX_HIDDEN + 1}"):
        ExperimentConfig(hidden=MAX_HIDDEN + 1)


@pytest.mark.parametrize("n", [15, 16])
def test_fourier_baseline_top_limit(n):
    """The DC term and two coefficients per other order, at most one per
    sample: 15 samples fit all eight orders, 16 samples fit the DC term and
    the 7 harmonic orders below their Nyquist order 8."""
    angles = np.arange(n) * (360.0 / n)
    theta = np.radians(angles)
    errors = 3.0 + sum(np.cos(k * theta) / k for k in range(1, 8))
    profile = ErrorProfile(np.stack((angles, errors), axis=1))
    _model, _spectrum, orders = fit_fourier_baseline(profile, 8)
    assert sorted(orders) == list(range(8))
    with pytest.raises(BadConfig, match=rf"top must be in \[0, 8\] for a profile of {n} samples"):
        fit_fourier_baseline(profile, 9)


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 179, 180])
def test_fourier_baseline_fits_every_top_up_to_the_limit(n):
    """White noise on an exact grid of n angles: every `top` the limit admits
    fits.  The Nyquist order n/2 of an even n, whose sine column is zero on
    this grid, is never selected, though the spectrum lists it."""
    angles = np.arange(n) * (360.0 / n)
    errors = np.random.default_rng(n).standard_normal(n)
    profile = ErrorProfile(np.stack((angles, errors), axis=1))
    limit = (n + 1) // 2   # the DC term and every order below n/2
    for top in range(limit + 1):
        _model, spectrum, orders = fit_fourier_baseline(profile, top)
        assert len(orders) == top and 2 * max(orders, default=0) < n
    assert len(spectrum) == n // 2 + 1
    with pytest.raises(BadConfig, match=rf"top must be in \[0, {limit}\] for a profile of {n} "):
        fit_fourier_baseline(profile, limit + 1)


def cosine_error_profile(amplitude):
    """Errors `amplitude` * cos(angle) arc-min on the 180-point even-degree grid."""
    angles = np.arange(0.0, 360.0, 2.0)
    return ErrorProfile(np.stack((angles, amplitude * np.cos(np.radians(angles))), axis=1))


@pytest.mark.parametrize("hidden, prune", [(6, False), (6, True), (1, False), (2, False)],
                         ids=["plain", "prune", "plain-1", "plain-2"])
def test_fit_network_matches_train_and_prune(hidden, prune):
    """`fit_network` trains on the `TARGET_NORM` dataset and prunes as its
    parts do, with and without pruning, down to the tiny widths 1 and 2; a
    profile past the 7.5' that the band maps onto 0 and 1 stops it."""
    profile = cosine_error_profile(5.0)
    training = TrainingConfig(max_iterations=20, seed=3)
    cfg = ExperimentConfig(hidden=hidden, prune=prune, training=training)
    net, history, report = fit_network(profile, cfg)
    data = dataset_from_profile(profile)
    params, expected_history = train_lm(init_params(hidden, seed=3), data, training)
    expected_report = None
    if prune:
        params, expected_history, expected_report = prune_and_retrain(params, data, training,
                                                                      train_fn=train_lm)
    assert report == expected_report and history == expected_history
    assert np.array_equal(net.params, params)
    outputs = _activations(params, data.design)[1][:, 0]
    predicted = predict_error(CompensationModel("wide", net), profile.angles_deg())
    assert np.array_equal(predicted, TARGET_NORM.denormalize(outputs))
    assert np.all(np.isfinite(history.mse_per_iteration))
    with pytest.raises(TargetOutOfRange):
        fit_network(cosine_error_profile(9.0), cfg)


@pytest.mark.parametrize("prune", [False, True], ids=["plain", "prune"])
def test_fit_network_builds_one_network(monkeypatch, prune):
    built = []
    validate = Network.__post_init__
    monkeypatch.setattr(Network, "__post_init__", lambda net: built.append(validate(net)))
    cfg = ExperimentConfig(hidden=4, prune=prune,
                           training=TrainingConfig(max_iterations=5, seed=1))
    fit_network(cosine_error_profile(5.0), cfg)
    assert len(built) == 1


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
    # the stop window that ended training, as well as its budget
    assert report["config"]["stall_window"] == 20
    # every setting of both configs, in declared order, `training` replaced by its fields
    names = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "training"]
    assert list(report["config"]) == names + [f.name for f in dataclasses.fields(TrainingConfig)]


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
    assert np.array_equal(ann.payload.params, result.ann_model.payload.params)
    assert fou.payload == result.fourier_model.payload
