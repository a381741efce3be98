import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rescomp.caldata import (
    CSV_HEADER,
    CalibrationSet,
    ErrorProfile,
    error_profile,
    load_calibration,
    partition_even_odd,
    save_calibration,
    stats,
    wrap_deg,
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
    TooFewSamples,
)
from rescomp.simgen import archetype_spec, synthesize


def make_set(pairs, **kw):
    table, encoder = zip(*pairs)
    return CalibrationSet(table, encoder, **kw)


def merged_halves(train, test):
    """The rows of two calibration sets, sorted by table angle."""
    table = np.concatenate((train.table_deg, test.table_deg))
    encoder = np.concatenate((train.encoder_deg, test.encoder_deg))
    order = np.argsort(table)
    return table[order], encoder[order]


# --- loading ---

def test_load_minimal(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("table_angle_deg,encoder_angle_deg\n0,0.05\n2,2.01\n")
    cal = load_calibration(p)
    assert len(cal) == 2
    assert cal.table_deg.tolist() == [0.0, 2.0]
    assert cal.encoder_deg.tolist() == [0.05, 2.01]
    assert cal.table_deg.dtype == cal.encoder_deg.dtype == np.float64


def test_columns_are_read_only_copies():
    table, encoder = [0.0, 2.0], np.array([0.05, 2.01])
    cal = CalibrationSet(table, encoder)
    encoder[0] = 9.0
    assert cal.encoder_deg[0] == 0.05
    for column in (cal.table_deg, cal.encoder_deg):
        with pytest.raises(ValueError):
            column[0] = 1.0


@pytest.mark.parametrize("table, encoder, error", [
    ([0.0, 360.0], [0.0, 1.0], OutOfRange),
    ([0.0, 1.0], [-1e-12, 1.0], OutOfRange),
    ([0.0, math.nan], [0.0, 1.0], OutOfRange),
    ([0.0, 1.0], [0.0, math.inf], OutOfRange),
    ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0], DuplicateGridAngle),
    ([0.0, 2.0, 1.0], [0.0, 1.0, 2.0], NonMonotonicGrid),
    ([0.0, 1.0], [0.0], MalformedRow),
    ([[0.0, 1.0]], [[0.0, 1.0]], MalformedRow),
    ([5.0], [5.0], TooFewSamples),
    ([], [], TooFewSamples),
])
def test_set_rejects_bad_columns(table, encoder, error):
    with pytest.raises(error):
        CalibrationSet(table, encoder)


def test_set_names_first_bad_value():
    with pytest.raises(OutOfRange, match=r"^encoder_deg=400\.0 not in \[0, 360\)$"):
        CalibrationSet([0.0, 1.0, 2.0], [0.0, 400.0, 500.0])
    with pytest.raises(NonMonotonicGrid, match=r"not strictly increasing at 1\.0$"):
        CalibrationSet([0.0, 2.0, 1.0, 0.5], [0.0, 1.0, 2.0, 3.0])


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
    assert again.table_deg.tobytes() == cal.table_deg.tobytes()
    assert again.encoder_deg.tobytes() == cal.encoder_deg.tobytes()
    assert p.read_text().endswith("\n")
    assert "\r" not in p.read_text()


# pieces of calibration rows, and bytes that are not UTF-8
CSV_TOKENS = st.sampled_from([b"0", b"1", b"2", b"9", b".", b",", b"-", b"e", b"nan", b"inf",
                              b"\n", b"\r", b" ", b"\xff", b"\xc3"])


def test_load_single_row_too_few(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("table_angle_deg,encoder_angle_deg\n0,0.05\n")
    with pytest.raises(TooFewSamples):
        load_calibration(p)


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
    assert prof.points[0].tolist() == [10.0, 0.0]


def test_error_wraps_across_seam():
    # 359.95 reported at table angle 0 is a -3' error, not +21597'
    cal = make_set([(0.0, 359.95), (2.0, 2.0)])
    prof = error_profile(cal)
    seam = dict(prof.points.tolist())[359.95]
    assert seam == pytest.approx(-3.0, abs=1e-9)


def test_error_positive():
    cal = make_set([(100.0, 100.05), (102.0, 102.0)])
    prof = error_profile(cal)
    assert dict(prof.points.tolist())[100.05] == pytest.approx(3.0, abs=1e-9)


def test_profile_ordered_by_encoder_angle():
    cal = make_set([(0.0, 359.95), (2.0, 2.0), (4.0, 4.01)])
    prof = error_profile(cal)
    angles = prof.angles_deg().tolist()
    assert angles == sorted(angles)


def test_profile_ties_keep_table_order():
    cal = make_set([(0.0, 5.0), (1.0, 5.0), (2.0, 5.0)])
    assert error_profile(cal).errors_arcmin().tolist() == [300.0, 240.0, 180.0]


@pytest.mark.parametrize("make", [
    lambda: ErrorProfile(((0.0, 1.0), (1.0, -1.0), (2.0, 0.5))),
    lambda: ErrorProfile(np.array([[0.0, 1.0], [1.0, -1.0], [2.0, 0.5]])),
    lambda: ErrorProfile(()),
    lambda: error_profile(synthesize(archetype_spec(1), grid_step_deg=2.0)),
], ids=["pairs", "c-order-array", "empty", "error_profile"])
def test_profile_columns_contiguous_and_read_only(make):
    """The spectrum's dot products sum a contiguous column in one order; a
    strided view sums differently and would move spectrum.csv's last bits."""
    prof = make()
    assert prof.points.shape == (len(prof), 2)
    for column in (prof.angles_deg(), prof.errors_arcmin()):
        assert column.flags.c_contiguous
        assert not column.flags.writeable
        assert column.dtype == np.float64


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
    assert train.table_deg.tolist() == [0.0, 2.0]
    assert train.encoder_deg.tolist() == [0.1, 2.1]
    assert test.table_deg.tolist() == [1.0, 3.0]
    assert test.encoder_deg.tolist() == [1.1, 3.1]
    assert train.encoder_id == cal.encoder_id


def test_partition_full_circle():
    cal = synthesize(archetype_spec(2), grid_step_deg=1.0)
    train, test = partition_even_odd(cal)
    assert len(train) == 180
    assert len(test) == 180
    table, encoder = merged_halves(train, test)
    assert table.tobytes() == cal.table_deg.tobytes()
    assert encoder.tobytes() == cal.encoder_deg.tobytes()


def test_partition_non_integer_grid():
    cal = make_set([(0.5, 0.5), (1.5, 1.5)])
    with pytest.raises(NonIntegerGrid):
        partition_even_odd(cal)


def test_partition_idempotent():
    cal = synthesize(archetype_spec(1), grid_step_deg=1.0)
    train, test = partition_even_odd(cal)
    merged = CalibrationSet(*merged_halves(train, test), cal.encoder_id)
    train2, test2 = partition_even_odd(merged)
    for again, half in ((train2, train), (test2, test)):
        assert again.table_deg.tobytes() == half.table_deg.tobytes()
        assert again.encoder_deg.tobytes() == half.encoder_deg.tobytes()


@pytest.mark.parametrize("pairs, half", [
    ([(0.0, 0.0), (2.0, 2.0)], "odd-degree"),
    ([(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)], "even-degree"),
    ([(0.0, 0.0), (1.0, 1.0)], "even-degree"),
])
def test_partition_names_short_half(pairs, half):
    with pytest.raises(TooFewSamples, match=rf"^the {half} \("):
        partition_even_odd(make_set(pairs))


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


def reference_wrap_deg(angle):
    """The scalar wrap into [0, 360), one angle at a time."""
    wrapped = math.fmod(angle, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    if wrapped >= 360.0:
        wrapped -= 360.0
    return wrapped


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20)
       | st.just([-1e-30, -5e-324, -360.0, 720.0, -0.0, 359.99999999999994]))
# fmod gives -0.0 for -0.0 and -360.0, which stay -0.0, and -eps for -5e-324,
# which rounds to 360.0 and wraps to 0.0; 720.0 wraps to 0.0, and the largest
# double below 360 stays where it is
@example([-0.0])
@example([-5e-324])
@example([-360.0])
@example([720.0])
@example([359.99999999999994])
def test_wrap_deg_matches_scalar_reference(angles):
    wrapped = wrap_deg(angles)
    reference = np.array([reference_wrap_deg(a) for a in angles])
    assert wrapped.tobytes() == reference.tobytes()
    assert np.all((wrapped >= 0.0) & (wrapped < 360.0))
    assert float(wrap_deg(angles[0])) == reference[0]


@pytest.mark.parametrize("angles, bad", [([1.0, math.nan, math.inf], "nan"),
                                         (-math.inf, "-inf")])
def test_wrap_deg_rejects_non_finite(angles, bad):
    with pytest.raises(OutOfRange, match=rf"^angle {bad} is not finite$"):
        wrap_deg(angles)


def test_wrap_range_bounds():
    for delta in (-721.0, -180.0, -179.999, 0.0, 179.999, 180.0, 359.0, 721.0):
        w = wrap_signed_deg(delta)
        assert -180.0 < w <= 180.0
