import math

import numpy as np
import pytest

from rescomp.caldata import (
    ARCMIN_PER_DEG,
    ErrorProfile,
    error_profile,
    partition_even_odd,
    wrap_deg,
)
from rescomp.cli import format_angles
from rescomp.errors import (
    BadConfig,
    BadOrders,
    NonUniformGrid,
    RankDeficientDesign,
    RescompError,
    UnderdeterminedFit,
)
from rescomp.experiment import fit_fourier_baseline
from rescomp.fourier import (
    MAX_ORDER,
    FourierModel,
    FourierTerm,
    SpectrumEntry,
    eval_fourier,
    fit_fourier,
    harmonic_spectrum,
    _phasors,
    select_top,
)
from rescomp.pipeline import CompensationModel, correct
from rescomp.simgen import LSB_DEG, archetype_spec, synthesize


def grid_profile(fn, n=180):
    """Profile sampled from a closed-form error function on a uniform grid."""
    step = 360.0 / n
    pts = tuple((i * step, fn(math.radians(i * step))) for i in range(n))
    return ErrorProfile(pts)


# --- spectrum ---

def test_pure_cosine_spectrum():
    profile = grid_profile(lambda t: 3.0 * math.cos(2 * t))
    spectrum = harmonic_spectrum(profile)
    assert spectrum[0].order == 2
    assert spectrum[0].amplitude_arcmin == pytest.approx(3.0, abs=1e-10)
    for e in spectrum[1:]:
        assert e.amplitude_arcmin < 1e-10


def test_constant_profile_is_dc_only():
    profile = grid_profile(lambda t: 1.0)
    spectrum = harmonic_spectrum(profile)
    assert spectrum[0].order == 0
    assert spectrum[0].amplitude_arcmin == pytest.approx(1.0, abs=1e-12)
    for e in spectrum[1:]:
        assert e.amplitude_arcmin < 1e-12


def test_spectrum_extends_to_nyquist():
    spectrum = harmonic_spectrum(grid_profile(lambda t: math.cos(t), n=180))
    orders = {e.order for e in spectrum}
    assert orders == set(range(0, 91))


def test_spectrum_identifies_generator_orders():
    spec = archetype_spec(1)
    cal = synthesize(spec, grid_step_deg=2.0)
    spectrum = harmonic_spectrum(error_profile(cal))
    top4 = select_top(spectrum, 4)
    # generator amplitudes are ordered n=1 > n=2 > n=16 > n=0
    assert top4 == [1, 2, 16, 0]


def test_non_uniform_grid_rejected():
    pts = tuple((a, 0.1) for a in (0.0, 2.0, 4.0, 9.0, 14.0))
    with pytest.raises(NonUniformGrid):
        harmonic_spectrum(ErrorProfile(pts))


def test_parseval_even_grid_with_offset():
    rng = np.random.default_rng(21)
    n = 24
    step = 360.0 / n
    angles = [0.4 * step + i * step for i in range(n)]
    errors = rng.normal(0, 1.0, n)
    profile = ErrorProfile(tuple(zip(angles, errors)))
    spectrum = harmonic_spectrum(profile)
    dc = next(e.amplitude_arcmin for e in spectrum if e.order == 0)
    energy = dc**2 + sum(
        e.amplitude_arcmin**2 / 2.0 for e in spectrum if e.order > 0
    )
    assert energy == pytest.approx(float(np.mean(errors**2)), rel=1e-8)


def test_parseval_odd_grid():
    rng = np.random.default_rng(22)
    n = 25
    step = 360.0 / n
    profile = ErrorProfile(tuple((i * step, rng.normal()) for i in range(n)))
    spectrum = harmonic_spectrum(profile)
    dc = next(e.amplitude_arcmin for e in spectrum if e.order == 0)
    energy = dc**2 + sum(
        e.amplitude_arcmin**2 / 2.0 for e in spectrum if e.order > 0
    )
    errors = np.array(profile.errors_arcmin())
    assert energy == pytest.approx(float(np.mean(errors**2)), rel=1e-8)


# --- harmonic selection ---

def test_select_top_default_count():
    spec = archetype_spec(2)
    spectrum = harmonic_spectrum(error_profile(synthesize(spec, grid_step_deg=2.0)))
    top = select_top(spectrum, 10)
    assert len(top) == 10
    assert len(set(top)) == 10


def test_select_top_zero():
    spectrum = (SpectrumEntry(0, 1.0),)
    assert select_top(spectrum, 0) == []


def test_select_top_tie_breaks_by_lower_order():
    spectrum = (SpectrumEntry(4, 2.0), SpectrumEntry(7, 2.0), SpectrumEntry(1, 0.5))
    assert select_top(spectrum, 2) == [4, 7]


def test_select_top_count_out_of_range():
    spectrum = (SpectrumEntry(0, 1.0),)
    with pytest.raises(BadConfig):
        select_top(spectrum, 2)
    with pytest.raises(BadConfig):
        select_top(spectrum, -1)


def test_spectrum_sorted_with_ties():
    profile = grid_profile(lambda t: math.cos(4 * t) + math.cos(7 * t), n=60)
    spectrum = harmonic_spectrum(profile)
    amps = [e.amplitude_arcmin for e in spectrum]
    assert amps == sorted(amps, reverse=True)


# --- least-squares fit ---

TERMS = ((0, 0.40, 0.40), (1, 2.00, 0.70), (2, 1.00, 2.10), (16, 0.50, -1.30))


def closed_form(t):
    return sum(amp * math.cos(n * t + ph) for n, amp, ph in TERMS)


def test_fit_recovers_exact_coefficients():
    profile = grid_profile(closed_form, n=180)
    model = fit_fourier(profile, [0, 1, 2, 16])
    # amp*cos(n t + ph) = amp*cos(ph)*cos(nt) - amp*sin(ph)*sin(nt)
    expected_a0 = 0.40 * math.cos(0.40)
    assert model.a0 == pytest.approx(expected_a0, abs=1e-9)
    by_order = {t.n: t for t in model.terms}
    for n, amp, ph in TERMS[1:]:
        assert by_order[n].a == pytest.approx(amp * math.cos(ph), abs=1e-9)
        assert by_order[n].b == pytest.approx(-amp * math.sin(ph), abs=1e-9)


def test_fit_zero_profile():
    profile = grid_profile(lambda t: 0.0, n=36)
    model = fit_fourier(profile, [1, 3])
    assert model.a0 == pytest.approx(0.0, abs=1e-12)
    for t in model.terms:
        assert abs(t.a) < 1e-12 and abs(t.b) < 1e-12


def test_fit_evaluate_roundtrip():
    original = FourierModel(
        a0=0.7, terms=(FourierTerm(1, 1.2, -0.3), FourierTerm(5, 0.4, 0.9))
    )
    angles = [i * 5.0 for i in range(72)]
    profile = ErrorProfile(tuple((a, eval_fourier(original, a)) for a in angles))
    refit = fit_fourier(profile, [1, 5])
    assert refit.a0 == pytest.approx(original.a0, abs=1e-9)
    for t_orig, t_new in zip(original.terms, refit.terms):
        assert t_new.a == pytest.approx(t_orig.a, abs=1e-9)
        assert t_new.b == pytest.approx(t_orig.b, abs=1e-9)


def ssr(model, profile):
    pred = eval_fourier(model, np.array(profile.angles_deg()))
    return float(np.sum((pred - np.array(profile.errors_arcmin())) ** 2))


def test_fit_is_least_squares_optimal():
    rng = np.random.default_rng(23)
    profile = grid_profile(lambda t: closed_form(t), n=90)
    noisy = ErrorProfile(
        tuple((a, e + rng.normal(0, 0.2)) for a, e in profile.points)
    )
    model = fit_fourier(noisy, [0, 1, 2, 16])
    base = ssr(model, noisy)
    for delta in (1e-3, -1e-3):
        perturbed = FourierModel(model.a0 + delta, model.terms)
        assert ssr(perturbed, noisy) >= base
        for idx, term in enumerate(model.terms):
            terms_a = list(model.terms)
            terms_a[idx] = FourierTerm(term.n, term.a + delta, term.b)
            assert ssr(FourierModel(model.a0, tuple(terms_a)), noisy) >= base
            terms_b = list(model.terms)
            terms_b[idx] = FourierTerm(term.n, term.a, term.b + delta)
            assert ssr(FourierModel(model.a0, tuple(terms_b)), noisy) >= base


def test_fit_underdetermined():
    profile = ErrorProfile(tuple((i * 72.0, 0.5) for i in range(5)))
    with pytest.raises(UnderdeterminedFit):
        fit_fourier(profile, [1, 2, 3])


def test_fit_rank_deficient_at_nyquist():
    # on an 8-point aligned grid the sine column of order 4 vanishes
    profile = ErrorProfile(tuple((i * 45.0, 1.0) for i in range(8)))
    with pytest.raises(RankDeficientDesign):
        fit_fourier(profile, [4])


# --- evaluation ---

def test_eval_constant_model():
    model = FourierModel(a0=1.0, terms=())
    assert eval_fourier(model, 0.0) == 1.0
    assert eval_fourier(model, 123.4) == 1.0


def test_eval_first_harmonic():
    model = FourierModel(a0=0.0, terms=(FourierTerm(1, 2.0, 0.0),))
    assert eval_fourier(model, 90.0) == pytest.approx(0.0, abs=1e-12)
    assert eval_fourier(model, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_eval_periodicity():
    model = FourierModel(
        a0=0.2, terms=(FourierTerm(1, 1.0, 0.5), FourierTerm(16, 0.3, -0.7))
    )
    for theta in (0.0, 17.3, 123.456, 359.9):
        assert eval_fourier(model, theta) == pytest.approx(
            eval_fourier(model, theta + 360.0), abs=1e-12
        )


def eval_term_by_term(model, theta_deg):
    """Reference series: one term at a time, summed in term order."""
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    value = np.full_like(theta, model.a0)
    for t in model.terms:
        value += t.a * np.cos(t.n * theta) + t.b * np.sin(t.n * theta)
    return value


# the order sets of the kernel tests: consecutive low orders, as fits select
# them, and powers of two up to the largest order a 16-bit fit can select
ORDER_SETS = [range(1, 11), [2 ** k for k in range(16)]]


def seeded_model(orders, seed=61):
    rng = np.random.default_rng(seed)
    return FourierModel(rng.normal(), tuple(
        FourierTerm(n, *rng.normal(0.0, 1.0, 2)) for n in orders))


@pytest.mark.parametrize("orders", ORDER_SETS)
def test_eval_bits_do_not_depend_on_the_batch(orders):
    model = seeded_model(orders)
    angles = np.random.default_rng(62).uniform(-720.0, 720.0, 1000)
    batch = eval_fourier(model, angles)
    assert np.array_equal(eval_fourier(model, angles[1::7]), batch[1::7])
    for i, theta in enumerate(angles[:50].tolist()):
        for form in (theta, np.float64(theta), np.array(theta), np.array([theta])):
            value = eval_fourier(model, form)
            assert np.array_equal(value, batch[i:i + 1] if np.ndim(form) else batch[i])


def test_eval_takes_numpy_integer_orders():
    model = seeded_model(ORDER_SETS[0])
    numpy_orders = FourierModel(model.a0, tuple(
        FourierTerm(np.int64(t.n), t.a, t.b) for t in model.terms))
    angles = np.random.default_rng(66).uniform(0.0, 360.0, 100)
    assert np.array_equal(eval_fourier(numpy_orders, angles), eval_fourier(model, angles))


def test_phasor_bits_do_not_depend_on_the_other_orders():
    theta = np.radians(np.random.default_rng(63).uniform(0.0, 360.0, 64))
    for n in (*range(1, 130), *(2 ** k + d for k in range(7, 21) for d in (-1, 1)), MAX_ORDER):
        alone, = _phasors(theta, [n])
        _, among, _ = _phasors(theta, [1, n, 81])
        assert np.array_equal(alone, among), n


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("orders", ORDER_SETS)
def test_eval_error_at_most_that_of_term_by_term(orders):
    # measured against the series at the exact angle, summed in long double:
    # the phasor kernel may err at most 1.5 times as much as np.cos and np.sin
    model = seeded_model(orders)
    angles = np.random.default_rng(64).uniform(-720.0, 720.0, 1000)
    theta = angles.astype(np.longdouble) * (4 * np.arctan(np.longdouble(1)) / 180)
    exact = np.full(theta.shape, np.longdouble(model.a0))
    for t in model.terms:
        exact += (np.longdouble(t.a) * np.cos(t.n * theta)
                  + np.longdouble(t.b) * np.sin(t.n * theta))
    kernel_err = np.max(np.abs(eval_fourier(model, angles) - exact))
    reference_err = np.max(np.abs(eval_term_by_term(model, angles) - exact))
    assert kernel_err <= 1.5 * reference_err


# the ten orders the Fourier baseline selects on each archetype's even-degree
# half of its 1-degree grid (order 0 is the DC term)
ARCHETYPE_ORDERS = {
    1: [1, 2, 16, 0, 35, 70, 43, 64, 80, 84],
    2: [0, 1, 2, 16, 46, 72, 60, 85, 38, 59],
    3: [1, 16, 2, 0, 81, 4, 51, 17, 9, 30],
    4: [0, 1, 16, 2, 18, 51, 43, 33, 85, 66],
}


@pytest.mark.parametrize("archetype", sorted(ARCHETYPE_ORDERS))
def test_archetype_corrections_print_as_term_by_term(archetype):
    # every 16-bit code corrects to the line the np.cos and np.sin series gives
    train, _test = partition_even_odd(synthesize(archetype_spec(archetype), grid_step_deg=1.0))
    series, _spectrum, orders = fit_fourier_baseline(error_profile(train), 10)
    assert orders == ARCHETYPE_ORDERS[archetype]
    codes = wrap_deg(np.arange(65536) * LSB_DEG)
    reference = wrap_deg(codes - eval_term_by_term(series, codes) / ARCMIN_PER_DEG)
    corrected = correct(CompensationModel("arch", series), codes)
    assert format_angles(corrected) == format_angles(reference)


def test_model_rejects_duplicate_orders():
    with pytest.raises(BadOrders):
        FourierModel(a0=0.0, terms=(FourierTerm(1, 1.0, 0.0), FourierTerm(1, 0.5, 0.0)))


def test_order_errors_are_named_value_errors():
    profile = grid_profile(math.cos)
    for make in (lambda: FourierModel(a0=0.0, terms=(FourierTerm(0, 1.0, 0.0),)),
                 lambda: FourierModel(a0=0.0, terms=(FourierTerm(MAX_ORDER + 1, 1.0, 0.0),)),
                 lambda: FourierModel(a0=0.0, terms=(FourierTerm(2.5, 1.0, 0.0),)),
                 lambda: fit_fourier(profile, [1, -2]),
                 lambda: fit_fourier(profile, [1, 2 ** 60])):
        with pytest.raises(BadOrders) as info:
            make()
        assert isinstance(info.value, RescompError) and isinstance(info.value, ValueError)
