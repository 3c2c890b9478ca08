"""Continuation model: closed-form fit, resonance evaluation, tail fits."""

import dataclasses
import math
import re
from collections import Counter
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
from starkdim.specfun import Hyp2F1

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


def test_float_range_limits_raise_numerical_errors():
    """Valid input past the float range raises, naming the input, instead
    of a traceback or NaN: the Gamma prefactor G of the continuation
    (finite at l = 98, NaN from l = 99 at alpha = 3), series coefficients
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
    the alpha = 3 model make as many for an 11-point sweep as for a
    101-point one (130 and 1,325 Gamma calls when each point made its own)."""
    counts = Counter()
    for module, name in ((specfun, "complex_gamma"), (specfun, "digamma"),
                         (starkdim.resum, "complex_gamma")):
        def counting(z, original=getattr(module, name), name=name):
            counts[name] += 1
            return original(z)

        monkeypatch.setattr(module, name, counting)
    made = []
    for n in (11, 101):
        counts.clear()
        model = dataclasses.replace(models[3.0])
        sweep(model, np.linspace(0.0, 1.0, n))
        made.append(dict(counts))
    assert made[0] == made[1]
    assert 0 < made[0]["complex_gamma"] < 40
    assert made[0]["digamma"] == 2
    counts.clear()
    sweep(model, np.linspace(0.0, 1.0, 101))
    assert not counts  # the model keeps what its first sweep built


@pytest.mark.parametrize("x,route", [(1.05, "log connection (m=30)"),
                                     (5.0, "1/w connection")])
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


def test_tail_fit_needs_points():
    with pytest.raises(InsufficientData):
        linear_tail_fit(fake_points([1.0], [1.0]))
    # every point at one field leaves no line to fit
    with pytest.raises(InsufficientData):
        linear_tail_fit(fake_points([1.0] * 10, range(1, 11)))


def test_slope_exponent_validation():
    with pytest.raises(InsufficientData):
        slope_exponent([(1.0, 1.0), (0.5, 0.4)])
    with pytest.raises(NonPositiveSlope):
        slope_exponent([(1.0, 1.0), (0.75, 0.5), (0.5, -0.4)])
    with pytest.raises(OutOfRange):
        slope_exponent([(1.0, 1.0), (-0.75, 0.5), (0.5, 0.4)])


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
