"""Continuation model: closed-form fit, resonance evaluation, tail fits."""

import hashlib
import math
import random
import re
import sys
import threading
from collections import Counter, defaultdict
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkdim.resum
from starkdim import specfun
from starkdim import (
    STANDARD_SWEEP_RANGES,
    EnergySeries,
    HypModel,
    ResonancePoint,
    dispersion_report,
    energy_series,
    fit_model,
    fit_round_trip_residual,
    linear_tail_fit,
    model_coefficients,
    resonance,
    slope_exponent,
    standard_model,
    sweep,
)
from starkdim.errors import (
    DegenerateSeries,
    InsufficientData,
    InvalidL,
    NoIonization,
    NonConvergent,
    NonlinearTail,
    NonPositiveSlope,
    NumericalError,
    OutOfRange,
)
from starkdim.resum import (_kept_continuation, lower_side_energy,
                            lower_side_rate)
from starkdim.specfun import Hyp2F1, complex_gamma
from test_oracle import reference_rate

ALPHAS = (3.0, 2.5, 2.0, 1.5)


def fake_points(fields, gammas, delta=-1.0):
    """ResonancePoint sequence with prescribed decay rates."""
    return [
        ResonancePoint(field=float(f), energy=complex(delta, -0.5 * g))
        for f, g in zip(fields, gammas)
    ]


# ---------------------------------------------------------------------------
# fit


def test_fit_round_trip_all_dimensions(models, series_map):
    for alpha in ALPHAS:
        res = fit_round_trip_residual(models[alpha], series_map[alpha])
        assert res < 1e-10


def test_synthetic_forward_fit_recovers_parameters():
    """Coefficients generated from planted parameters are fitted back to
    the same parameters."""
    planted = HypModel(
        h1=0.45 - 0.21j, h2=0.45 + 0.21j, h3=complex(1200.0),
        h4=complex(3.7e-28), l=30.0, e0=-0.5, alpha=3.0,
    )
    coeffs = model_coefficients(planted, 4)
    for value in coeffs:
        assert abs(value.imag) <= 1e-13 * abs(value)
    series = EnergySeries(
        alpha=3.0, order=4,
        e_coeffs=(planted.e0,) + tuple(v.real for v in coeffs),
    )
    fitted = fit_model(series, l=30.0)
    assert fitted.h1 == pytest.approx(planted.h1, rel=1e-9)
    assert fitted.h2 == pytest.approx(planted.h2, rel=1e-9)
    assert fitted.h3 == pytest.approx(planted.h3, rel=1e-9)
    assert fitted.h4 == pytest.approx(planted.h4, rel=1e-9)


def test_fit_canonical_root_order(models):
    for model in models.values():
        assert (model.h1.real, model.h1.imag) <= (model.h2.real, model.h2.imag)
        assert model.h2 == model.h1.conjugate()
    # real pairs: h1 = (S - sqrt(d))/2 is the smaller root
    for alpha in (5.2, 9.7, 18.2):
        model = fit_model(energy_series(alpha, 4), l=30.0)
        assert model.h1.imag == model.h2.imag == 0.0
        assert model.h1.real < model.h2.real


def test_fit_validation():
    series = energy_series(3.0, 4)
    with pytest.raises(InvalidL):
        fit_model(series, l=4.0)
    with pytest.raises(InsufficientData):
        fit_model(energy_series(3.0, 3))
    broken = EnergySeries(alpha=3.0, order=4,
                          e_coeffs=(-0.5, 0.0, -1.0, -2.0, -3.0))
    with pytest.raises(DegenerateSeries):
        fit_model(broken)


def test_fit_near_alpha_one():
    """Coefficients of order 1e-14 and below still fit: the h3 ~ 0 test is
    relative to the ratio scale."""
    alpha = Fraction(1001, 1000)
    model = standard_model(alpha)
    assert fit_round_trip_residual(model, energy_series(alpha, 4)) <= 1e-10
    assert resonance(model, 1e-9).gamma == 0.0


@pytest.mark.parametrize("alpha", (1.5, 3, 20))
def test_fit_without_cut_rejected(alpha):
    """Below a threshold l*(alpha) the fit has h3 < 0: 1 + h3 z never
    reaches the cut and every field would report Gamma = 0."""
    with pytest.raises(DegenerateSeries) as info:
        standard_model(alpha, l=4.5)
    assert f"alpha={alpha}, l=4.5): h3 = -" in str(info.value)


def test_kept_fit_gives_a_new_model(empty_tables):
    """A fit kept for one series gives each call a new model with the same
    fields; l and alpha that compare equal share the kept fit."""
    series = energy_series(3, 4)
    first = fit_model(series)
    assert fit_model(series) == first and fit_model(series) is not first
    assert fit_model(series, 30) == first
    # at p = 1 the float series holds the exact one's floats
    assert fit_model(energy_series(3.0, 4)) == first
    assert starkdim.resum._fitted.cache_info()[:2] == (4, 1)


def test_failed_fit_is_not_kept(empty_tables):
    """A fit with no cut raises the same DegenerateSeries on every call,
    naming alpha and l as given, and keeps nothing."""
    series = energy_series(3, 4)
    for l in (4.5, 4.5, Fraction(9, 2)):
        with pytest.raises(DegenerateSeries) as info:
            fit_model(series, l)
        assert f"(alpha=3, l={l}): h3 = -551.075 < 0" in str(info.value)
    assert starkdim.resum._fitted.cache_info().currsize == 0


def test_kept_fits_stay_within_their_bound(empty_tables):
    for k in range(40):
        fit_model(energy_series(Fraction(7 + k, 4), 4))
        assert starkdim.resum._fitted.cache_info().currsize <= 16
    assert starkdim.resum._fitted.cache_info().currsize == 16


def test_float_range_limits_raise_numerical_errors():
    """Valid input past the float range raises, naming the input, instead
    of a traceback or NaN: the Gamma prefactor G of the continuation
    (finite at l = 98, not from l = 98.58 at alpha = 3), series coefficients
    beyond the float range (alpha = 1e11), and h3 z past the branch point
    (from F ~ 3.03e152 at alpha = 3)."""
    assert math.isfinite(resonance(standard_model(3.0, l=98.0), 1.0).gamma)
    with pytest.raises(NumericalError, match=r"alpha=3.0, l=99.0"):
        resonance(standard_model(3.0, l=99.0), 1.0)
    with pytest.raises(DegenerateSeries, match="alpha=100000000000"):
        standard_model(Fraction(10 ** 11))
    model = standard_model(3.0)
    assert math.isfinite(resonance(model, 3e152).gamma)
    for field in (1e154, 1e200):
        with pytest.raises(NumericalError,
                           match=re.escape(f"(alpha=3.0, field={field})")):
            resonance(model, field)


def test_model_coefficients_stop_at_the_gamma_pole(models):
    """At integer l the Taylor terms end at the pole of Gamma(l - k):
    count = l is the last that re-expands, count > l is OutOfRange."""
    assert model_coefficients(models[3.0], 30)[-1] == (
        -1.942990968313782e+94 + 7.046831309353716e+77j)
    with pytest.raises(OutOfRange, match="k = l = 30.0"):
        model_coefficients(models[3.0], 31)
    with pytest.raises(OutOfRange):
        model_coefficients(standard_model(3.0, 12.0), 13)
    assert len(model_coefficients(standard_model(3.0, 12.5), 13)) == 13


@pytest.mark.parametrize("count", (-1, 2.5, 4.0, "4"))
def test_model_coefficients_count_is_a_nonnegative_int(models, count):
    with pytest.raises(OutOfRange, match="count must be a nonnegative int"):
        model_coefficients(models[3.0], count)


@pytest.mark.parametrize("alpha", (Fraction(101, 100), Fraction(6, 5)))
def test_model_coefficients_of_a_real_pair_are_real(alpha):
    """At l = 4.5 a real pair's terms change sign past the pole of
    Gamma(l - k), from k = 4: each coefficient is still the product of the
    term ratios (h1 + k)(h2 + k) h3 / ((k + 1)(l - 1 - k)), bit for bit,
    with Im = +0."""
    model = fit_model(energy_series(alpha, 4), 4.5)
    assert model.h1.imag == 0.0 and model.h2.imag == 0.0
    h1, h2, l = model.h1, model.h2, model.l
    term = model.h4 * complex_gamma(l)
    for k, value in enumerate(model_coefficients(model, 12)):
        expected = model.e0 * term / 16.0 ** (k + 1)
        assert value.real.hex() == expected.real.hex()
        assert value.imag.hex() == "0x0.0p+0"
        term = term * (h1 + k) * (h2 + k) * model.h3 / ((k + 1) * (l - 1 - k))


def test_model_coefficients_past_float_range_raise():
    """At alpha = 20 the Taylor term of E_58, about -1.44e317, overflows,
    where the re-expansion once returned nan+nanj; E_54 keeps its bits, and
    E_56, whose term (-8.2e304) is finite although its predecessor times
    (h1 + k)(h2 + k) h3 is not, is within 1e-14 of 40-digit mpmath."""
    model = standard_model(20.0)
    got = model_coefficients(model, 28)
    assert got[26] == -2.2210172008859608e+260
    with mp.workdps(40):
        k = 27
        ref = complex(mp.mpf(model.e0) * mp.mpc(model.h4)
                      * mp.rf(mp.mpc(model.h1), k) * mp.rf(mp.mpc(model.h2), k)
                      * mp.gamma(mp.mpf(model.l) - k)
                      * mp.mpf(model.h3.real) ** k / mp.factorial(k)
                      / mp.mpf(16) ** (k + 1))
    assert abs(got[27] - ref) <= 1e-14 * abs(ref)
    with pytest.raises(NumericalError,
                       match=r"E_58 leaves the float range \(alpha=20.0, l=30.0\)"):
        model_coefficients(model, 29)
    # at non-integer l the terms run on until one overflows
    with pytest.raises(NumericalError, match="E_130 "):
        model_coefficients(standard_model(3.0, 30.5), 300)


def test_model_coefficients_past_16_to_the_256():
    """16^(k+1) leaves the float range at k = 255, but the coefficients do
    not: all 264 here, E_512 = 2.78e-9 and E_528 among them, are within
    1e-12 of 40-digit mpmath.  From E_520 (Taylor term -7.6e303) on, a
    term's predecessor times (h1 + k)(h2 + k) h3 passes the float range
    although the term is finite; the Taylor term of E_530, 5.3e308, is
    not, and raises."""
    h1 = 0.3 + 0.2j
    model = HypModel(h1=h1, h2=h1.conjugate(), h3=8.27596, h4=1e-3, l=30.5,
                     e0=-0.5, alpha=3.0)
    with pytest.raises(NumericalError, match="E_530 leaves the float range"):
        model_coefficients(model, 265)
    got = model_coefficients(model, 264)
    with mp.workdps(40):
        a, b = mp.mpc(h1), mp.mpc(h1.conjugate())
        for k, value in enumerate(got):
            ref = complex(mp.mpf(model.e0) * mp.mpf(model.h4) * mp.rf(a, k)
                          * mp.rf(b, k) * mp.gamma(mp.mpf(model.l) - k)
                          * mp.mpf(model.h3) ** k / mp.factorial(k)
                          / mp.mpf(16) ** (k + 1))
            assert abs(value - ref) <= 1e-12 * abs(ref), k


@pytest.mark.parametrize("alpha,onset", [(3.0, 98.58), (2.0, 98.72),
                                         (1.5, 98.79), (20.0, 97.49)])
def test_gamma_prefactor_overflow_onset(alpha, onset):
    """The Gamma prefactor leaves the float range within 0.01 of the onset
    README states for each alpha."""
    assert math.isfinite(resonance(standard_model(alpha, onset - 0.01),
                                   1.0).gamma)
    with pytest.raises(NumericalError, match="prefactor"):
        resonance(standard_model(alpha, onset + 0.01), 1.0)


def _model_with_l(l):
    """The alpha = 3 model with its branch power l replaced."""
    m = standard_model(3.0)
    return HypModel(m.h1, m.h2, m.h3, m.h4, l, m.e0, m.alpha)


@pytest.mark.parametrize("l", (142.6, 142.9, 150.0, 1e308))
def test_gamma_of_l_overflow_names_the_fit(l):
    """Gamma(l) of the fit overflows a float from l = 142.58, where
    complex_gamma raises: the fit and the re-expansion of a hand-built
    model name that stage, alpha and l."""
    overflow = f"Gamma(l) of the fit: gamma overflows a float at z = {complex(l)}"
    with pytest.raises(NumericalError, match=re.escape(
            f"{overflow} (alpha=3, l={l})")):
        fit_model(energy_series(3, 4), l)
    with pytest.raises(NumericalError, match=re.escape(
            f"{overflow} (alpha=3.0, l={l})")):
        model_coefficients(_model_with_l(l))


def test_nan_round_trip_fails_the_fit(monkeypatch, empty_tables):
    """A NaN in the re-expansion is a failed round trip, wherever it sits."""
    series = energy_series(3, 4)
    model = fit_model(series)
    back = model_coefficients(model, 4)
    back[1] = complex(math.nan)
    monkeypatch.setattr(starkdim.resum, "model_coefficients",
                        lambda model, count: back)
    empty_tables()  # the fit above is kept: fit again, with the patch
    assert math.isnan(fit_round_trip_residual(model, series))
    with pytest.raises(DegenerateSeries, match="round-trip residual nan"):
        fit_model(series)


def test_fit_with_tiny_positive_h3_accepted():
    assert 0.0 < standard_model(1.01, l=4.5).h3.real < 1e-11


_REAL_MODEL = dict(h1=0.45 - 0.21j, h2=0.45 + 0.21j, h3=complex(1200.0),
                   h4=complex(3.7e-28), l=30.0, e0=-0.5, alpha=3.0)


@pytest.mark.parametrize("change,name", (
    (dict(h3=complex(1200.0, 1e-3)), "h3"),
    (dict(h4=complex(3.7e-28, 1e-40)), "h4"),
    (dict(e0=complex(-0.5, 0.0)), "e0"),
    (dict(l=complex(30.0, 0.0)), "l"),
    (dict(h1=0.45 - 0.21j, h2=0.45 + 0.22j), "h1, h2"),
    (dict(h1=0.45 - 0.21j, h2=complex(0.9)), "h1, h2"),
))
def test_model_must_be_real(change, name):
    with pytest.raises(OutOfRange, match=name):
        HypModel(**{**_REAL_MODEL, **change})


def test_real_models_accepted():
    HypModel(**_REAL_MODEL)
    HypModel(**{**_REAL_MODEL, "h1": complex(0.3), "h2": complex(0.8)})


# ---------------------------------------------------------------------------
# resonance evaluation


def test_zero_field_is_unperturbed_energy(models):
    for alpha, model in models.items():
        pt = resonance(model, 0.0)
        assert pt.energy == complex(model.e0)
        assert pt.gamma == 0.0


def test_resonance_against_mpmath():
    """Full model evaluation cross-checked with a 40-digit reference."""
    mp.mp.dps = 40

    def mp_energy(model, field, side=-1):
        h1, h2 = mp.mpc(model.h1), mp.mpc(model.h2)
        l = mp.mpf(model.l)
        z = (mp.mpf(field) / 4) ** 2
        w = 1 + mp.mpc(model.h3) * z
        if mp.im(w) == 0 and mp.re(w) > 1:
            w = mp.mpc(mp.re(w), side * mp.mpf(10) ** -30)
        pref = mp.gamma(l + h1) * mp.gamma(l + h2) / mp.gamma(l + h1 + h2)
        f = mp.hyp2f1(h1, h2, l + h1 + h2, w)
        energy = mp.mpc(model.e0) * (1 + mp.mpc(model.h4) * z * pref * f)
        # mirror the library's branch policy: keep the decaying side
        if side < 0 and mp.im(energy) > 0:
            return mp_energy(model, field, side=+1)
        return energy

    for alpha, fields in ((3.0, (0.12, 1.0)), (2.5, (2.0,)),
                          (2.0, (5.0,)), (1.5, (10.2, 20.0))):
        model = standard_model(alpha)
        for field in fields:
            mine = resonance(model, field)
            ref = mp_energy(model, field)
            delta_ref = float(mp.re(ref))
            gamma_ref = float(-2 * mp.im(ref))
            assert mine.delta == pytest.approx(delta_ref, rel=1e-10)
            assert mine.gamma == pytest.approx(gamma_ref, rel=1e-10)


def test_weak_field_matches_perturbation_theory(models, series_map):
    """Where the quartic term is negligible the resonance shift reduces to
    E0 + E2 eps^2."""
    for alpha in ALPHAS:
        e = [float(x) for x in series_map[alpha].e_coeffs]
        field = 0.01 * (alpha - 1.0) ** 3
        pt = resonance(models[alpha], field)
        quadratic = e[0] + e[1] * field**2
        quartic_scale = abs(e[2]) * field**4
        assert abs(pt.delta - quadratic) <= 10.0 * quartic_scale


def test_one_2f1_evaluation_per_point(models, monkeypatch):
    calls = []
    original = Hyp2F1.cut

    def counting(self, *args, **kwargs):
        calls.append(kwargs.get("cut_side"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Hyp2F1, "cut", counting)
    for alpha, top in STANDARD_SWEEP_RANGES:
        calls.clear()
        grid = np.linspace(0.0, top, 101)
        sweep(models[alpha], grid)
        assert calls == [-1] * 100


def test_sweep_constants_do_not_grow_with_grid(models, monkeypatch):
    """Gamma and digamma calls depend on the model alone: fresh copies of
    the alpha = 3 model make as many for a 101-point sweep as for a
    1001-point one (about 9 Gamma calls per field point if each point
    built its own).  Both grids reach every 2F1 region the model uses, so
    the lazily built constants are the same.  Each copy starts from an
    empty registry of kept continuations, so that it builds its own."""
    counts = Counter()
    for module, name in ((specfun, "complex_gamma"), (specfun, "digamma"),
                         (starkdim.resum, "complex_gamma")):
        def counting(z, original=getattr(module, name), name=name):
            counts[name] += 1
            return original(z)

        monkeypatch.setattr(module, name, counting)
    made = []
    for n in (101, 1001):
        counts.clear()
        _kept_continuation.cache_clear()
        m = models[3.0]
        model = HypModel(m.h1, m.h2, m.h3, m.h4, m.l, m.e0, m.alpha)
        sweep(model, np.linspace(0.0, 1.0, n))
        made.append(dict(counts))
    assert made[0] == made[1]
    assert 0 < made[0]["complex_gamma"] < 40
    assert made[0]["digamma"] == 2
    counts.clear()
    sweep(model, np.linspace(0.0, 1.0, 101))
    assert not counts  # the model keeps what its first sweep built


@pytest.mark.parametrize("x,route", [(1.05, "log connection (m=30)"),
                                     (8.0, "1/w connection")])
def test_series_failure_names_alpha_field_and_route(models, monkeypatch,
                                                    x, route):
    """A series that runs out of terms is reported with the model's alpha,
    the field and the 2F1 formula it served; x = 1 + h3 (F/4)^2 picks it."""
    model = models[3.0]
    field = 4.0 * math.sqrt((x - 1.0) / model.h3.real)
    monkeypatch.setattr(specfun, "MAX_TERMS", 0)
    with pytest.raises(NonConvergent) as info:
        resonance(model, field)
    message = str(info.value)
    assert f"in the {route}" in message
    assert f"alpha=3.0, field={field}" in message


@given(alpha=st.floats(1.2, 20.0), log_field=st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_rate_finite_and_positive(alpha, log_field):
    """Every alpha in [1.2, 20] decays at every F in [1e-3, 1e3].  Gamma is
    not monotone in F: at alpha = 3/2 it dips between F = 281.8 and 316.2."""
    point = resonance(standard_model(alpha), 10.0 ** log_field)
    assert math.isfinite(point.delta)
    assert math.isfinite(point.gamma) and point.gamma > 0.0


@pytest.mark.parametrize(
    "alpha", (1.2, Fraction(3, 2), 2, 2.1, Fraction(5, 2), 3, 7, 20), ids=str)
def test_rate_monotone_below_first_dip(alpha):
    """Gamma never decreases on a log grid of F from 1e-3 to 20.  The first
    decrease comes later, near F = 25.1 (alpha = 5/2), 35.5 (2.1), 43.7 (2),
    158 (3) and 295 (3/2); none up to 1e3 at alpha = 1.2, 5, 7 and 20."""
    fields = [10.0 ** (-3.0 + k * math.log10(2e4) / 200) for k in range(201)]
    gammas = [pt.gamma for pt in sweep(standard_model(alpha), fields)]
    assert all(b >= a for a, b in zip(gammas, gammas[1:]))


@given(alpha=st.floats(1.0, 1.2, exclude_min=True, exclude_max=True),
       log_field=st.floats(-3.0, 3.0))
@settings(max_examples=20, deadline=None)
def test_rate_finite_near_unit_dimension(alpha, log_field):
    """Towards alpha = 1 the weak-field rate underflows: to exactly 0 at
    F = 1e-3 for alpha <= 1.1 (4.4e-316 at alpha = 1.12).  At alpha = 1 +
    2^-52 the series itself degenerates, which the fit reports."""
    try:
        model = standard_model(alpha)
    except DegenerateSeries as exc:
        assert "vanishing series coefficient" in str(exc)
        return
    point = resonance(model, 10.0 ** log_field)
    assert math.isfinite(point.delta)
    assert math.isfinite(point.gamma) and point.gamma >= 0.0


def test_rounded_unit_argument_has_no_decay():
    """At alpha = 1.01 and weak field, 1 + h3 z rounds to exactly 1, where
    the model's decay rate (~1e-515) underflows to 0."""
    model = standard_model(1.01)
    for field in (1e-4, 1e-3):
        assert resonance(model, field).gamma == 0.0


def test_decaying_branch_selected(models):
    rng = np.random.default_rng(11)
    for alpha, model in models.items():
        top = {3.0: 1.0, 2.5: 2.0, 2.0: 5.0, 1.5: 20.0}[alpha]
        for field in rng.uniform(1e-3, top, size=12):
            assert resonance(model, float(field)).energy.imag <= 0.0


def test_sweep_grid_validation(models):
    model = models[3.0]
    with pytest.raises(OutOfRange):
        sweep(model, [])
    with pytest.raises(OutOfRange):
        sweep(model, [-0.1, 0.5])
    with pytest.raises(OutOfRange):
        sweep(model, [0.5, 0.5])
    with pytest.raises(OutOfRange):
        resonance(model, -1.0)


def test_infinite_field_is_input_error(models):
    with pytest.raises(OutOfRange, match="finite"):
        resonance(models[3.0], math.inf)


def signed_rate(model, field):
    """The model's signed discontinuity from the complex energy."""
    return 2.0 * lower_side_energy(model, field).imag


@given(alpha=st.floats(1.01, 20.0), log_v=st.floats(-3.0, 3.0))
@settings(max_examples=60, deadline=None)
def test_rate_only_entry_matches_energy(alpha, log_v):
    """lower_side_rate is 2 Im lower_side_energy bit for bit, with the
    offset v = h3 (F/4)^2 log-uniform on [1e-3, 1e3] at every alpha."""
    model = standard_model(alpha)
    field = 4.0 * math.sqrt(10.0 ** log_v / model.h3.real)
    assert lower_side_rate(model, field).hex() == signed_rate(model, field).hex()


@given(alpha=st.floats(1.2, 20.0), log_v=st.floats(-3.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_rate_matches_exact_discontinuity(alpha, log_v):
    """lower_side_rate within 1e-12 of the 60-digit DLMF 15.2.3 oracle
    (``test_oracle.reference_rate``) with v = h3 (F/4)^2 log-uniform on
    [1e-3, 10]: the reflected route, defining series and anchored Taylor
    steps alike."""
    model = standard_model(alpha)
    field = 4.0 * math.sqrt(10.0 ** log_v / model.h3.real)
    ref = reference_rate(model, field)
    assert abs(lower_side_rate(model, field) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("alpha", (3.0, 5.0, 1.01, 20.0))
def test_rate_only_entry_at_reflection_switch(alpha):
    """At v = 10 and its float neighbours (x = 1 + v = 11 is where the
    reflected series hands over to the generic value) and at zero field
    both entries give the same bits.  The fitted model with h3 set to v
    puts F = 4 (z = 1) exactly at offset v."""
    base = standard_model(alpha)
    for v in (math.nextafter(10.0, 0.0), 10.0, math.nextafter(10.0, 11.0)):
        model = HypModel(base.h1, base.h2, complex(v), base.h4, base.l,
                         base.e0, base.alpha)
        assert lower_side_rate(model, 4.0).hex() == (
            signed_rate(model, 4.0).hex())
    assert lower_side_rate(base, 0.0).hex() == signed_rate(base, 0.0).hex()


@pytest.mark.parametrize("field", (-1.0, math.nan, math.inf, 3.1e152))
def test_rate_only_entry_raises_like_energy(models, field):
    """Both entries share the field checks and the error context."""
    model = models[3.0]
    with pytest.raises((OutOfRange, NumericalError)) as energy_error:
        lower_side_energy(model, field)
    with pytest.raises((OutOfRange, NumericalError)) as rate_error:
        lower_side_rate(model, field)
    assert type(rate_error.value) is type(energy_error.value)
    assert str(rate_error.value) == str(energy_error.value)


def test_rate_only_entry_skips_the_log_connection(models, monkeypatch):
    """Below x = 11 the rate sums no connection formula: a field where Re F
    would come from the 1 - 1/w log connection (x = 1.3) evaluates no
    1 - 1/w or 1/w region, a 1/w-region one (x = 40) one."""
    model = models[3.0]
    calls = []
    for name in ("_pfaff_inf", "_inf"):
        def spy(self, *args, region=getattr(Hyp2F1, name)):
            calls.append(args)
            return region(self, *args)

        monkeypatch.setattr(Hyp2F1, name, spy)
    for x, expected in ((1.3, 0), (40.0, 1)):
        field = 4.0 * math.sqrt((x - 1.0) / model.h3.real)
        calls.clear()
        lower_side_rate(model, field)
        assert len(calls) == expected


# lower_side_rate, Re and Im of lower_side_energy (float.hex) at one field
# per route the model path takes on the cut, with the interval that puts
# x = 1 + h3 (F/4)^2 on that route: the reflected series at its first
# anchor (z = v/x in [1/2, 2/3)) and at its fourth (z in [0.852, 0.901)),
# Re F from the log (integer l) and plain 1 - 1/w connections up to the
# hand-over at x = 1 + l/6, and the 1/w connection past x = 11 for a
# conjugate and a real pair; re-pinned when Re F moved to the 1 - 1/w
# connection, which moved one cell, the first anchor's Re E, from 1.99e-15
# off the 60-digit reference to on it
ROUTE_PINS = {
    "reflected series, first anchor": (
        3, 30.0, 0.0276, (2.0, 3.0), "0x1.afd1ae8c2833ap-30",
        "-0x1.00e534982af9ap-1", "0x1.afd1ae8c2833ap-31"),
    "reflected series, fourth anchor": (
        3, 30.0, 0.06, (6.75, 10.1), "0x1.15440c9f14df8p-11",
        "-0x1.04b60e0254fd4p-1", "0x1.15440c9f14df8p-12"),
    "log 1-1/w connection": (
        3, 30.0, 0.0124, (1.0, 6.0), "0x1.6d893c21d1bd4p-73",
        "-0x1.002d852bb0cd5p-1", "0x1.6d893c21d1bd4p-74"),
    "plain 1-1/w connection": (
        3, 12.3, 0.0228, (1.0, 3.05), "0x1.f851121bc09f5p-33",
        "-0x1.009b5faf2f707p-1", "0x1.f851121bc09f5p-34"),
    "1/w connection, conjugate pair": (
        3, 30.0, 0.1, (11.0, math.inf), "0x1.d6a45d1c8298ap-7",
        "-0x1.0e0c70080dda8p-1", "0x1.d6a45d1c8298ap-8"),
    "1/w connection, real pair": (
        5, 30.0, 0.011, (11.0, math.inf), "0x1.31ddfa8e18839p-7",
        "-0x1.16f02b14fec34p-3", "0x1.31ddfa8e18839p-8"),
}


@pytest.mark.parametrize("route", sorted(ROUTE_PINS))
def test_route_bits_pinned(route):
    """The rate and the energy keep their pinned bits on every route the
    model path takes on the cut."""
    alpha, l, field, (lo, hi), rate, real, imag = ROUTE_PINS[route]
    model = fit_model(energy_series(alpha, 4), l)
    assert lo < 1.0 + model.h3.real * (field / 4.0) ** 2 < hi
    hyp = model._continuation[1]
    assert (hyp._pfaff._inf_route[0] is None) == route.startswith("plain")
    if route.endswith("pair"):
        assert (model.h1.imag != 0.0) == route.endswith("conjugate pair")
    energy = lower_side_energy(model, field)
    assert lower_side_rate(model, field).hex() == rate
    assert (energy.real.hex(), energy.imag.hex()) == (real, imag)


@pytest.mark.parametrize("route", sorted(ROUTE_PINS))
def test_resonance_is_a_one_field_sweep(route):
    """On every route the model path takes, resonance at a field has the
    bits of the sweep of that field alone."""
    alpha, l, field = ROUTE_PINS[route][:3]
    model = fit_model(energy_series(alpha, 4), l)
    point, (swept,) = resonance(model, field), sweep(model, [field])
    assert (point.field, point.delta.hex(), point.gamma.hex()) == (
        swept.field, swept.delta.hex(), swept.gamma.hex())


@pytest.mark.parametrize("field", (-1.0, math.inf, math.nan))
def test_resonance_raises_like_a_sweep(models, field):
    """A negative or non-finite field raises the same error from resonance
    and from the sweep of that field alone."""
    model = models[3.0]
    with pytest.raises(OutOfRange) as scalar:
        resonance(model, field)
    with pytest.raises(OutOfRange) as grid:
        sweep(model, [field])
    assert str(scalar.value) == str(grid.value)


def test_negative_grid_raises_the_field_check(models):
    """A sweep checks the sign of each field where the scalar entries do."""
    with pytest.raises(OutOfRange, match="field must be nonnegative"):
        sweep(models[3.0], [-0.1, 0.5])


# ---------------------------------------------------------------------------
# kept continuations

VALUE_SET_ALPHAS = (1.1, 1.5, 2.0, 2.5, 3.0, 3.5, 5.0, 5.2, 7.0, 20.0)
VALUE_SET_LS = (12.3, 30.0, 60.0)
VALUE_SET_FIELDS = 60
# sha256 of value_set() before continuations were kept across models,
# re-pinned when the dispersion moments moved to the stretched grid in ln F:
# only the 8 "report" keys changed, every rate and energy kept its bits.
# Re-pinned when Re F on the cut up to v = max(1, l/6) moved to the 1 - 1/w
# connection: 227 Delta cells moved (largest change 2.6e-4 relative, at
# alpha = 20, l = 60, v = 0.70), every Gamma, rate and report kept its bits.
# Re-pinned when the reflected series' reach moved from x = 11 to
# x = 1 + max(10, 2H), H the Re F hand-over (x = 21 at l = 60): 30 Gamma and
# the same 30 rate cells moved, all at l = 60 with v in (10, 20], the largest
# by 5.8e-13 relative (alpha = 7, v = 11.7); 23 moved toward the 60-digit
# reference (worst 5.8e-13 before, 1.8e-14 after) and 7 away, each to within
# 1.7e-14 of it; every Delta and report kept its bits
VALUE_SET_DIGEST = (
    "7d8d6de49659521f649385062706b61304ec1c64b120a15bbfc66a2b90855094")


def value_set():
    """Delta, Gamma and the signed rate of every fit over VALUE_SET_ALPHAS x
    VALUE_SET_LS, at fields with v = h3 (F/4)^2 log-spaced over [1e-3, 1e3],
    each from a new model per call, in three shuffled passes; plus the
    moment integrals of 8 dispersion reports.  30 parameter sets, more than
    the registry keeps, so the passes both take and rebuild continuations.
    Returns the set of value bits seen per key."""
    params = {}
    for alpha in VALUE_SET_ALPHAS:
        series = energy_series(alpha, 4)
        for l in VALUE_SET_LS:
            m = fit_model(series, l)
            params[alpha, l] = (m.h1, m.h2, m.h3, m.h4, m.l, m.e0, m.alpha)
    calls = []
    for (alpha, l), p in params.items():
        for k in range(VALUE_SET_FIELDS):
            v = 10.0 ** (-3.0 + 6.0 * k / (VALUE_SET_FIELDS - 1))
            calls.append((alpha, l, k, 4.0 * math.sqrt(v / p[2].real)))
    values = defaultdict(set)
    rng = random.Random(28)
    for _ in range(3):
        rng.shuffle(calls)
        for alpha, l, k, field in calls:
            point = resonance(HypModel(*params[alpha, l]), field)
            rate = lower_side_rate(HypModel(*params[alpha, l]), field)
            values[alpha, l, k].add(
                (point.delta.hex(), point.gamma.hex(), rate.hex()))
    for alpha in (1.1, 1.5, 2.0, 2.5, 3.0, 5.0, 7.0, 20.0):
        series = energy_series(alpha, 4)
        report = dispersion_report(fit_model(series), series)
        values["report", alpha] = {tuple(e.integral_value.hex()
                                         for e in report.entries)}
    return values


def test_kept_continuations_keep_every_value():
    """Each key of the value set has one value over the three passes, and
    the set hashes to the digest of continuations built per model."""
    values = value_set()
    assert len(values) == 30 * VALUE_SET_FIELDS + 8
    assert all(len(seen) == 1 for seen in values.values())
    text = repr(sorted((repr(key), sorted(seen))
                       for key, seen in values.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == VALUE_SET_DIGEST


@pytest.fixture
def empty_registry():
    """The registry of kept continuations, emptied for one test."""
    _kept_continuation.cache_clear()
    yield _kept_continuation
    _kept_continuation.cache_clear()


def test_fits_of_one_series_share_a_continuation(empty_registry):
    series = energy_series(3, 4)
    first, second = fit_model(series), fit_model(series)
    assert first is not second
    assert first._continuation is second._continuation
    assert empty_registry.cache_info().currsize == 1


def test_fit_in_another_thread_shares_the_continuation(empty_registry):
    """A fit of the same series in another thread takes the same 2F1; the
    values are the same bits."""
    series = energy_series(3, 4)
    mine = fit_model(series)
    theirs = []

    def fit_and_rate():
        model = fit_model(series)
        theirs.append((model._continuation, lower_side_rate(model, 0.5)))

    worker = threading.Thread(target=fit_and_rate)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    (pref, hyp, _), rate = theirs[0]
    assert hyp is mine._continuation[1]
    assert pref == mine._continuation[0]
    assert lower_side_rate(mine, 0.5).hex() == rate.hex()
    assert empty_registry.cache_info().currsize == 1


def test_continuation_is_evaluated_under_its_lock(empty_registry):
    """A rate waits while another thread holds the continuation's lock and,
    once it is released, has the bits of one thread alone."""
    series = energy_series(3, 4)
    expected = lower_side_rate(fit_model(series), 0.5)
    empty_registry.cache_clear()
    model = fit_model(series)
    rates = []
    worker = threading.Thread(
        target=lambda: rates.append(lower_side_rate(model, 0.5)))
    with model._continuation[2]:
        worker.start()
        worker.join(timeout=0.2)
        assert worker.is_alive() and not rates
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert rates[0].hex() == expected.hex()


def test_threads_sharing_the_registry_keep_every_value(empty_registry):
    """Four threads with a short switch interval refit three series and
    sum rates on new models, sharing continuations while they insert and
    evict them: every rate has the bits of one thread working alone, and
    the registry stays within its bound."""
    fields = [0.05 * k for k in range(1, 21)]
    series = [energy_series(alpha, 4) for alpha in (3, 2, 5)]
    params = [(l, s) for l in (12.3, 30.0, 60.0) for s in series]

    def rates():
        return [lower_side_rate(fit_model(s, l), f).hex()
                for l, s in params for f in fields]

    expected = rates()
    empty_registry.cache_clear()
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: results.append(rates()))
                   for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [expected] * 4
    assert empty_registry.cache_info().currsize <= 16


def test_threads_sharing_a_model_keep_every_value(empty_registry):
    """Twice, four threads with a short switch interval evaluate the same
    fitted models, which no thread has evaluated before: they share each
    model's continuation, so the 16 models hold one 2F1 each, 16 in all,
    and the registry 16 entries, and every rate and shift has the bits of
    one thread working alone."""
    fields = [0.05 * k for k in range(1, 60)]
    params = [(energy_series(alpha, 4), l) for alpha in (3, 2, 5, 7)
              for l in (12.3, 30.0, 60.0, 90.0)]

    def values(models):
        return [(lower_side_rate(m, f).hex(), resonance(m, f).delta.hex())
                for m in models for f in fields]

    expected = values([fit_model(s, l) for s, l in params])
    results, workers, kept = [], [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            empty_registry.cache_clear()
            models = [fit_model(s, l) for s, l in params]
            round_workers = [threading.Thread(
                target=lambda: results.append(values(models)))
                for _ in range(4)]
            for worker in round_workers:
                worker.start()
            for worker in round_workers:
                worker.join(timeout=60)
            workers += round_workers
            kept.append((
                {type(m._continuation[1]) for m in models},
                len({id(m._continuation[1]) for m in models}),
                empty_registry.cache_info().currsize))
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [expected] * 8
    assert kept == [({Hyp2F1}, 16, 16)] * 2


def test_registry_miss_is_built_once(empty_registry, monkeypatch):
    """Two threads that read the continuation of one new model at once get
    one 2F1, which the registry keeps.  Each build waits, up to 0.5 s, for
    the other thread to start one: from Python 3.12 neither cached_property
    nor lru_cache locks a miss, so without the registry's own lock both
    threads built, each its own 2F1.  On 3.10 and 3.11 cached_property
    locks, and the test passes either way."""
    barrier = threading.Barrier(2, timeout=0.5)
    builds = []

    def waiting_build(*args):
        builds.append(args)
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass  # the other thread never began a build
        return Hyp2F1(*args)

    monkeypatch.setattr(starkdim.resum, "Hyp2F1", waiting_build)
    model = fit_model(energy_series(3, 4))
    taken = []
    workers = [threading.Thread(
        target=lambda: taken.append(model._continuation)) for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
    assert not any(worker.is_alive() for worker in workers)
    assert len(builds) == 1
    kept = empty_registry(*(x.hex() for x in (
        model.h1.real, model.h1.imag, model.h2.real, model.h2.imag,
        model.l)))
    assert taken[0] is taken[1] is kept and model._continuation is kept


@pytest.mark.parametrize("l", (4.0, math.inf, -math.inf, math.nan))
def test_l_outside_the_open_range_is_bad_input(l):
    """fit_model and HypModel reject l outside (4, inf) as bad input, in the
    words of the CLI's --l check, not as a numerical failure."""
    message = "branch power l must be finite and exceed 4"
    with pytest.raises(InvalidL, match=message):
        fit_model(energy_series(3, 4), l)
    with pytest.raises(InvalidL, match=message):
        HypModel(0.5, 0.75, 2.0, 1.0, l, -0.5, 3.0)


def test_registry_drops_the_least_recently_used(empty_registry):
    """The registry keeps 16 continuations; taking one again makes it the
    most recently used, so the 17th parameter set drops the next oldest."""
    ls = [30.0 + 0.5 * k for k in range(17)]
    kept = [_model_with_l(l)._continuation for l in ls[:16]]
    assert _model_with_l(ls[0])._continuation is kept[0]
    _model_with_l(ls[16])._continuation
    assert empty_registry.cache_info().currsize == 16
    assert _model_with_l(ls[0])._continuation is kept[0]
    assert _model_with_l(ls[1])._continuation is not kept[1]
    assert empty_registry.cache_info().currsize == 16


def test_registry_tells_signed_zeros_apart(empty_registry):
    """Parameter sets equal as numbers but differing in the sign of a zero
    do not share a continuation."""
    models = [HypModel(complex(0.4, imag), 0.9 + 0j, complex(2.0),
                       complex(1e-3), 30.0, -0.5, 3.0)
              for imag in (0.0, -0.0)]
    assert models[0] == models[1]
    assert models[0]._continuation[1] is not models[1]._continuation[1]
    assert empty_registry.cache_info().currsize == 2


def test_prefactor_overflow_is_not_kept(empty_registry):
    """An overflowing prefactor (alpha = 3, l = 140) raises on every call,
    naming the alpha of the model that made it."""
    model = standard_model(3.0, 140.0)
    for _ in range(2):
        with pytest.raises(NumericalError, match=re.escape(
                "overflows a float (alpha=3.0, l=140.0)")):
            resonance(model, 0.5)
    copy = HypModel(model.h1, model.h2, model.h3, model.h4, model.l,
                    model.e0, 7.0)
    with pytest.raises(NumericalError, match=re.escape("(alpha=7.0, l=140.0)")):
        lower_side_rate(copy, 0.5)
    assert empty_registry.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# tail analysis


def test_linear_tail_fit_recovers_affine_rate():
    fields = np.linspace(0.0, 12.0, 101)
    gammas = np.where(fields > 2.0, 0.6 * (fields - 2.0), 0.0)
    fit = linear_tail_fit(fake_points(fields, gammas))
    assert fit.window_fraction == 0.3
    assert fit.slope == pytest.approx(0.6, rel=1e-12)
    assert fit.intercept == pytest.approx(-1.2, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.critical_field == pytest.approx(2.0, rel=1e-12)


def test_tail_fit_requires_ionization():
    fields = np.linspace(0.0, 10.0, 50)
    with pytest.raises(NoIonization):
        linear_tail_fit(fake_points(fields, np.zeros_like(fields)))


def test_tail_fit_rejects_oscillation():
    fields = np.linspace(0.0, 10.0, 101)
    gammas = 2.0 + np.sin(5.0 * fields)
    with pytest.raises(NonlinearTail):
        linear_tail_fit(fake_points(fields, gammas))


def test_flat_tail_is_a_zero_slope_fit():
    """Equal rates over the window fit a flat line exactly: the tail is
    not linear in the field, and the error names slope 0."""
    fields = [0.1 * k for k in range(1, 41)]
    with pytest.raises(NonlinearTail, match=re.escape(
            "(R^2 = 1.0000, slope = 0.000e+00)")):
        linear_tail_fit(fake_points(fields, [0.02] * 40))


def test_tail_fit_needs_points():
    with pytest.raises(InsufficientData):
        linear_tail_fit(fake_points([1.0], [1.0]))
    # every point at one field leaves no line to fit
    with pytest.raises(InsufficientData):
        linear_tail_fit(fake_points([1.0] * 10, range(1, 11)))


@pytest.mark.parametrize("bad", (math.inf, math.nan))
def test_tail_fit_skips_rates_that_are_not_finite(bad):
    """A rate that is infinite or NaN is not usable, as a zero rate is not:
    the fit is the one without it, and where such rates fill the widest
    window, no window has 8 usable points."""
    fields = [0.1 * k for k in range(101)]
    gammas = [0.6 * max(f - 2.0, 0.0) for f in fields]
    reference = linear_tail_fit(fake_points(fields, gammas[:-1] + [0.0]))
    assert linear_tail_fit(fake_points(fields, gammas[:-1] + [bad])) == (
        reference)
    with pytest.raises(InsufficientData):
        linear_tail_fit(fake_points(fields, gammas[:50] + [bad] * 51))


def test_slope_exponent_validation():
    with pytest.raises(InsufficientData):
        slope_exponent([(1.0, 1.0), (0.5, 0.4)])
    with pytest.raises(NonPositiveSlope):
        slope_exponent([(1.0, 1.0), (0.75, 0.5), (0.5, -0.4)])
    with pytest.raises(OutOfRange):
        slope_exponent([(1.0, 1.0), (-0.75, 0.5), (0.5, 0.4)])


@pytest.mark.parametrize("bad", (math.inf, math.nan))
def test_slope_exponent_needs_finite_pairs(bad):
    """A channel scale or a slope that is not finite is refused as one that
    is not positive is."""
    with pytest.raises(OutOfRange, match="positive and finite"):
        slope_exponent([(1.0, 1.0), (bad, 0.5), (0.5, 0.4)])
    with pytest.raises(NonPositiveSlope, match="positive and finite"):
        slope_exponent([(1.0, 1.0), (0.75, bad), (0.5, 0.4)])


def test_line_fits_match_numpy_polyfit(standard_sweeps):
    """The four figure-2 tail windows and the slope exponent across them
    agree with numpy.polyfit to 1e-13 and come back as plain floats."""
    pairs = []
    for alpha in ALPHAS:
        fit = linear_tail_fit(standard_sweeps[alpha])
        window = [pt for pt in standard_sweeps[alpha]
                  if pt.field >= fit.field_lo and pt.gamma > 0.0]
        assert len(window) == fit.n_points
        ref = np.polyfit([pt.field for pt in window],
                         [pt.gamma for pt in window], 1)
        assert {type(v) for v in (fit.slope, fit.intercept, fit.r_squared,
                                  fit.field_lo, fit.field_hi)} == {float}
        assert fit.slope == pytest.approx(ref[0], rel=1e-13)
        assert fit.intercept == pytest.approx(ref[1], rel=1e-13)
        pairs.append(((alpha - 1.0) / 2.0, fit.slope))
    exponent = slope_exponent(pairs)
    ref = np.polyfit(np.log([p for p, _ in pairs]),
                     np.log([s for _, s in pairs]), 1)[0]
    assert type(exponent) is float
    assert exponent == pytest.approx(ref, rel=1e-13)


def test_slope_exponent_exact_power_law():
    pairs = [(p, 2.0 * p**1.4) for p in (1.0, 0.75, 0.5, 0.25)]
    assert slope_exponent(pairs) == pytest.approx(1.4, rel=1e-12)


@given(
    h3=st.floats(min_value=5.0, max_value=5e4),
    h4=st.floats(min_value=1e-32, max_value=1e-26),
    re_h=st.floats(min_value=0.2, max_value=0.9),
    im_h=st.floats(min_value=0.05, max_value=0.5),
)
@settings(max_examples=25, deadline=None)
def test_fit_inverts_arbitrary_conjugate_models(h3, h4, re_h, im_h):
    """Fitting is the exact inverse of coefficient generation for any model
    with a conjugate parameter pair."""
    planted = HypModel(
        h1=complex(re_h, -im_h), h2=complex(re_h, im_h),
        h3=complex(h3), h4=complex(h4), l=30.0, e0=-0.5, alpha=3.0,
    )
    coeffs = [v.real for v in model_coefficients(planted, 4)]
    series = EnergySeries(alpha=3.0, order=4,
                          e_coeffs=(planted.e0,) + tuple(coeffs))
    fitted = fit_model(series, l=30.0)
    assert fitted.h3.real == pytest.approx(h3, rel=1e-8)
    assert fitted.h1.real == pytest.approx(re_h, rel=1e-6, abs=1e-9)
    assert abs(fitted.h1.imag) == pytest.approx(im_h, rel=1e-6, abs=1e-9)
