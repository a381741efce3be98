import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rescomp.caldata import error_profile, stats
from rescomp.errors import BadGrid, BadSpec, CorruptFile, RescompError
from rescomp.simgen import (
    ARCHETYPE_MAE_TARGETS,
    LSB_ARCMIN,
    LSB_DEG,
    HarmonicSpec,
    HarmonicTerm,
    archetype_spec,
    harmonic_error_arcmin,
    quantize16,
    spec_from_json,
    spec_to_json,
    synthesize,
)


# --- quantization ---

def test_quantize_zero():
    assert quantize16(0.0) == 0.0


def test_quantize_rounding_boundary():
    assert quantize16(LSB_DEG * 0.4) == 0.0
    assert quantize16(LSB_DEG * 0.6) == pytest.approx(LSB_DEG, abs=0.0)


def test_lsb_is_about_a_third_arcmin():
    assert LSB_ARCMIN == pytest.approx(360.0 * 60.0 / 65536.0)
    assert abs(LSB_ARCMIN - 0.33) < 0.005


@given(st.floats(min_value=-720.0, max_value=720.0))
def test_quantize_idempotent(angle):
    once = quantize16(angle)
    assert quantize16(once) == once
    assert 0.0 <= once < 360.0


# --- synthesis ---

def test_zero_error_spec_quantizes_table_angle():
    spec = HarmonicSpec(terms=(), noise_sigma_arcmin=0.0, seed=1)
    cal = synthesize(spec, grid_step_deg=2.0)
    for table, encoder in zip(cal.table_deg.tolist(), cal.encoder_deg.tolist()):
        assert encoder == quantize16(table)


def test_single_harmonic_closed_form():
    # amp 3' at order 2: +3' at 0 degrees, zero crossing at 45 degrees
    spec = HarmonicSpec(terms=(HarmonicTerm(2, 3.0, 0.0),), noise_sigma_arcmin=0.0, seed=1)
    cal = synthesize(spec, grid_step_deg=45.0, quantize=False)
    prof = dict(error_profile(cal).points.tolist())
    assert prof[0.05] == pytest.approx(3.0, abs=1e-9)  # encoder reads 0 + 3'/60
    by_table = dict(zip(cal.table_deg.tolist(), cal.encoder_deg.tolist()))
    assert by_table[45.0] == pytest.approx(45.0, abs=1e-12)


def test_deterministic_for_fixed_seed():
    spec = archetype_spec(1)
    a = synthesize(spec, grid_step_deg=1.0)
    b = synthesize(spec, grid_step_deg=1.0)
    assert a.table_deg.tobytes() == b.table_deg.tobytes()
    assert a.encoder_deg.tobytes() == b.encoder_deg.tobytes()


def reference_synthesize(spec, step):
    """`synthesize` one sample at a time with `math`, the terms added left to
    right and one standard normal drawn per sample."""
    rng = np.random.default_rng(spec.seed)
    table, encoder = [], []
    for i in range(round(360.0 / step)):
        theta = 0.0 + i * step
        err = 0.0
        for t in spec.terms:
            err += t.amp_arcmin * math.cos(t.n * math.radians(theta) + t.phase_rad)
        err += spec.noise_sigma_arcmin * rng.standard_normal()
        steps = (theta + err / 60.0) / LSB_DEG
        rounded = math.floor(abs(steps) + 0.5) * (1.0 if steps >= 0 else -1.0)
        wrapped = math.fmod(rounded * LSB_DEG, 360.0)
        if wrapped < 0.0:
            wrapped += 360.0
        if wrapped >= 360.0:
            wrapped -= 360.0
        table.append(theta)
        encoder.append(wrapped)
    return np.array(table), np.array(encoder)


@pytest.mark.parametrize("index", [1, 2, 3, 4])
@pytest.mark.parametrize("step", [1.0, 2.0])
def test_synthesize_matches_per_sample_reference(index, step):
    spec = archetype_spec(index)
    cal = synthesize(spec, grid_step_deg=step)
    table, encoder = reference_synthesize(spec, step)
    assert cal.table_deg.tobytes() == table.tobytes()
    assert cal.encoder_deg.tobytes() == encoder.tobytes()


def test_bad_grid_step():
    # 360 / 1e12 lies within the divisor check's 1e-9 of zero points
    for step in (7.0, 400.0, 1e9, 1e12):
        with pytest.raises(BadGrid, match="does not divide 360"):
            synthesize(archetype_spec(1), grid_step_deg=step)


def test_grid_step_finer_than_lsb_rejected_before_allocation():
    # 1e-9 divides 360 within the divisor check's tolerance and would ask
    # for a 3.6e11-point grid
    for step in (1e-9, np.nextafter(LSB_DEG, 0.0)):
        with pytest.raises(BadGrid, match="finer than one 16-bit LSB"):
            synthesize(archetype_spec(1), grid_step_deg=step)
    assert len(synthesize(archetype_spec(1), grid_step_deg=LSB_DEG)) == 65536


def test_bad_offset():
    with pytest.raises(BadGrid):
        synthesize(archetype_spec(1), grid_step_deg=2.0, grid_offset_deg=2.0)


def test_offset_grid_hits_odd_degrees():
    cal = synthesize(archetype_spec(1), grid_step_deg=2.0, grid_offset_deg=1.0)
    assert cal.table_deg[:3].tolist() == [1.0, 3.0, 5.0]
    assert len(cal) == 180


def test_noiseless_roundtrip_within_half_lsb():
    spec = archetype_spec(3)
    noiseless = HarmonicSpec(terms=spec.terms, noise_sigma_arcmin=0.0, seed=spec.seed)
    cal = synthesize(noiseless, grid_step_deg=2.0)
    for angle, err in error_profile(cal).points.tolist():
        # recover the closed form through quantized encoder readings
        table = min(
            cal.table_deg.tolist(),
            key=lambda t: abs(t + harmonic_error_arcmin(spec.terms, t) / 60.0 - angle),
        )
        truth = harmonic_error_arcmin(spec.terms, table)
        assert abs(err - truth) <= LSB_ARCMIN / 2.0 + 1e-9


@pytest.mark.parametrize("index", [1, 2, 3, 4])
def test_archetype_mae_matches_target(index):
    cal = synthesize(archetype_spec(index), grid_step_deg=1.0)
    s = stats(error_profile(cal))
    assert abs(s.mae_arcmin - ARCHETYPE_MAE_TARGETS[index - 1]) <= 0.1
    # profiles stay inside the +-6' tolerance band
    assert s.min_arcmin > -6.0
    assert s.max_arcmin < 6.0


def test_archetype_seeds_differ():
    assert archetype_spec(1).seed == 42
    assert len({archetype_spec(k).seed for k in range(1, 5)}) == 4


# --- spec validation and JSON ---

def test_duplicate_orders_rejected():
    with pytest.raises(BadSpec):
        HarmonicSpec(terms=(HarmonicTerm(2, 1.0, 0.0), HarmonicTerm(2, 0.5, 1.0)))


def test_negative_sigma_rejected():
    with pytest.raises(BadSpec):
        HarmonicSpec(terms=(), noise_sigma_arcmin=-0.1)


@pytest.mark.parametrize("make, message", [
    (lambda: HarmonicTerm(-1, 1.0, 0.0), "harmonic order must be a non-negative integer"),
    (lambda: HarmonicTerm(1.5, 1.0, 0.0), "harmonic order must be a non-negative integer"),
    (lambda: HarmonicTerm(1, math.inf, 0.0), "amplitude must be finite"),
    (lambda: HarmonicTerm(1, 1e308, 0.0), "amplitude must be finite and at most 21600.0'"),
    (lambda: HarmonicTerm(1, 1.0, math.nan), "phase must be finite, got nan"),
    (lambda: HarmonicSpec(terms=(), noise_sigma_arcmin=math.nan), "noise sigma must be >= 0"),
    (lambda: HarmonicSpec(terms=(), noise_sigma_arcmin=math.inf),
     "noise sigma must be >= 0 and at most 21600.0'"),
    (lambda: HarmonicSpec(terms=(), seed=-1), "seed must be >= 0"),
    (lambda: archetype_spec(5), "archetype index must be 1..4"),
], ids=["negative-order", "fractional-order", "infinite-amplitude", "huge-amplitude",
        "nan-phase", "nan-sigma", "infinite-sigma", "negative-seed", "archetype-5"])
def test_spec_errors_are_named_value_errors(make, message):
    with pytest.raises(BadSpec, match=message) as info:
        make()
    assert isinstance(info.value, RescompError) and isinstance(info.value, ValueError)


def test_spec_json_roundtrip(tmp_path):
    spec = archetype_spec(2)
    p = tmp_path / "spec.json"
    spec_to_json(spec, p)
    again = spec_from_json(p)
    assert again == spec


@pytest.mark.parametrize("key, value, message", [
    ("terms", {}, r"^spec 'terms' must be a JSON list, got \{\}$"),
    ("terms", "", r"^spec 'terms' must be a JSON list, got ''$"),
    ("noise_sigma", 0.5, r"^unknown key 'noise_sigma' in a spec file$"),
    ("sed", 3, r"^unknown key 'sed' in a spec file$"),
], ids=["terms-object", "terms-string", "noise_sigma", "sed"])
def test_spec_file_schema_is_strict(tmp_path, key, value, message):
    p = tmp_path / "spec.json"
    spec_to_json(archetype_spec(1), p)
    doc = json.loads(p.read_text())
    doc[key] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match=message):
        spec_from_json(p)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize("field", ["amp_arcmin", "phase_rad", "noise_sigma_arcmin"])
def test_non_finite_spec_field_named(tmp_path, field, value):
    p = tmp_path / "spec.json"
    spec_to_json(archetype_spec(1), p)
    doc = json.loads(p.read_text())
    (doc if field == "noise_sigma_arcmin" else doc["terms"][2])[field] = value
    p.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match=f"^non-numeric or out-of-range '{field}': "):
        spec_from_json(p)
