import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rescomp.caldata import (
    CSV_HEADER,
    CalibrationSample,
    CalibrationSet,
    ErrorProfile,
    error_profile,
    load_calibration,
    partition_even_odd,
    save_calibration,
    stats,
    wrap_signed_deg,
)
from rescomp.errors import (
    DuplicateGridAngle,
    EmptyProfile,
    MalformedRow,
    NonIntegerGrid,
    NonMonotonicGrid,
    OutOfRange,
    RescompError,
)
from rescomp.simgen import archetype_spec, synthesize


def make_set(pairs, **kw):
    return CalibrationSet(tuple(CalibrationSample(t, e) for t, e in pairs), **kw)


# --- loading ---

def test_load_minimal(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("table_angle_deg,encoder_angle_deg\n0,0.05\n2,2.01\n")
    cal = load_calibration(p)
    assert len(cal) == 2
    assert cal.samples[0] == CalibrationSample(0.0, 0.05)
    assert cal.samples[1] == CalibrationSample(2.0, 2.01)


def test_load_non_numeric_row(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("table_angle_deg,encoder_angle_deg\n0,0.05\n2,xyz\n")
    with pytest.raises(MalformedRow):
        load_calibration(p)


def test_load_bad_header(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("alpha,beta\n0,0.05\n2,2.0\n")
    with pytest.raises(MalformedRow):
        load_calibration(p)


def test_load_out_of_range(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("table_angle_deg,encoder_angle_deg\n0,0.05\n2,360.0\n")
    with pytest.raises(OutOfRange):
        load_calibration(p)


def test_load_duplicate_angle(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("table_angle_deg,encoder_angle_deg\n2,2.0\n2,2.1\n")
    with pytest.raises(DuplicateGridAngle):
        load_calibration(p)


def test_load_out_of_order(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("table_angle_deg,encoder_angle_deg\n4,4.0\n2,2.1\n")
    with pytest.raises(NonMonotonicGrid):
        load_calibration(p)


def test_load_full_grid_roundtrip(tmp_path):
    # 180 rows at 0, 2, ..., 358 degrees: the standard training-grid size
    cal = synthesize(archetype_spec(1), grid_step_deg=2.0)
    assert len(cal) == 180
    p = tmp_path / "cal.csv"
    save_calibration(p, cal)
    again = load_calibration(p)
    assert again.samples == cal.samples
    assert p.read_text().endswith("\n")
    assert "\r" not in p.read_text()


# pieces of calibration rows, and bytes that are not UTF-8
CSV_TOKENS = st.sampled_from([b"0", b"1", b"2", b"9", b".", b",", b"-", b"e", b"nan", b"inf",
                              b"\n", b"\r", b" ", b"\xff", b"\xc3"])


@settings(max_examples=300, deadline=None)
@given(blob=st.binary(max_size=200)
       | st.lists(CSV_TOKENS, max_size=60).map(
           lambda parts: CSV_HEADER.encode() + b"\n" + b"".join(parts)))
def test_load_calibration_fuzz(tmp_path_factory, blob):
    # any bytes either load or raise a RescompError
    path = tmp_path_factory.getbasetemp() / "fuzz_cal.csv"
    path.write_bytes(blob)
    try:
        load_calibration(path)
    except RescompError:
        pass


# --- error profile ---

def test_error_identity():
    cal = make_set([(10.0, 10.0), (20.0, 20.0)])
    prof = error_profile(cal)
    assert prof.points[0] == (10.0, 0.0)


def test_error_wraps_across_seam():
    # 359.95 reported at table angle 0 is a -3' error, not +21597'
    cal = make_set([(0.0, 359.95), (2.0, 2.0)])
    prof = error_profile(cal)
    seam = dict(prof.points)[359.95]
    assert seam == pytest.approx(-3.0, abs=1e-9)


def test_error_positive():
    cal = make_set([(100.0, 100.05), (102.0, 102.0)])
    prof = error_profile(cal)
    assert dict(prof.points)[100.05] == pytest.approx(3.0, abs=1e-9)


def test_profile_ordered_by_encoder_angle():
    cal = make_set([(0.0, 359.95), (2.0, 2.0), (4.0, 4.01)])
    prof = error_profile(cal)
    angles = prof.angles_deg()
    assert angles == sorted(angles)


@given(
    a=st.floats(min_value=0.0, max_value=359.999999),
    b=st.floats(min_value=0.0, max_value=359.999999),
)
def test_wrap_antisymmetric(a, b):
    forward = wrap_signed_deg(b - a)
    backward = wrap_signed_deg(a - b)
    if forward != 180.0:  # both ends of the branch cut map to +180
        assert forward == -backward
    assert -180.0 < forward <= 180.0


# --- partitioning ---

def test_partition_parity():
    cal = make_set([(0.0, 0.1), (1.0, 1.1), (2.0, 2.1), (3.0, 3.1)])
    train, test = partition_even_odd(cal)
    assert [s.table_angle_deg for s in train.samples] == [0.0, 2.0]
    assert [s.table_angle_deg for s in test.samples] == [1.0, 3.0]
    assert train.encoder_id == cal.encoder_id


def test_partition_full_circle():
    cal = synthesize(archetype_spec(2), grid_step_deg=1.0)
    train, test = partition_even_odd(cal)
    assert len(train) == 180
    assert len(test) == 180
    merged = sorted(train.samples + test.samples, key=lambda s: s.table_angle_deg)
    assert tuple(merged) == cal.samples


def test_partition_non_integer_grid():
    cal = make_set([(0.5, 0.5), (1.5, 1.5)])
    with pytest.raises(NonIntegerGrid):
        partition_even_odd(cal)


def test_partition_idempotent():
    cal = synthesize(archetype_spec(1), grid_step_deg=1.0)
    train, test = partition_even_odd(cal)
    merged = CalibrationSet(
        tuple(sorted(train.samples + test.samples, key=lambda s: s.table_angle_deg)),
        cal.encoder_id,
        cal.epoch,
    )
    train2, test2 = partition_even_odd(merged)
    assert train2.samples == train.samples
    assert test2.samples == test.samples


# --- statistics ---

def test_stats_plus_minus_one():
    s = stats(ErrorProfile(((0.0, 1.0), (1.0, -1.0))))
    assert s.mae_arcmin == 1.0
    assert s.rms_arcmin == 1.0
    assert s.min_arcmin == -1.0
    assert s.max_arcmin == 1.0
    assert s.n_samples == 2


def test_stats_all_zero():
    s = stats(ErrorProfile(((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))))
    assert s.mae_arcmin == s.rms_arcmin == s.min_arcmin == s.max_arcmin == 0.0


def test_stats_empty():
    with pytest.raises(EmptyProfile):
        stats(ErrorProfile(()))


def test_stats_against_brute_force_oracle():
    """Noiseless seed-42 reference profile vs an independent direct-summation
    pass over the generator's closed form (values frozen from that pass)."""
    spec = archetype_spec(1)
    noiseless = type(spec)(terms=spec.terms, noise_sigma_arcmin=0.0, seed=spec.seed)
    cal = synthesize(noiseless, grid_step_deg=1.0, quantize=False)
    s = stats(error_profile(cal))
    assert s.mae_arcmin == pytest.approx(1.3300002095486962, abs=1e-9)
    assert s.rms_arcmin == pytest.approx(1.6764347160883029, abs=1e-9)
    assert s.min_arcmin == pytest.approx(-2.151357878180583, abs=1e-9)
    assert s.max_arcmin == pytest.approx(3.7415094293155877, abs=1e-9)
    assert s.n_samples == 360


@settings(max_examples=1000, deadline=None)
@given(
    errors=st.lists(
        st.floats(min_value=-1000.0, max_value=1000.0), min_size=1, max_size=50
    )
)
def test_mae_never_exceeds_rms(errors):
    profile = ErrorProfile(tuple((float(i), e) for i, e in enumerate(errors)))
    s = stats(profile)
    assert s.mae_arcmin <= s.rms_arcmin + 1e-12
    assert s.min_arcmin <= s.max_arcmin


def test_wrap_range_bounds():
    for delta in (-721.0, -180.0, -179.999, 0.0, 179.999, 180.0, 359.0, 721.0):
        w = wrap_signed_deg(delta)
        assert -180.0 < w <= 180.0
