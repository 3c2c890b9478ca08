"""Semiclassical barrier: turning points, tunneling integral, closed form."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkdim import wkb
from starkdim import (
    CALIBRATION_FLOOR,
    LANDAU_COMPARISON_RANGES,
    BarrierModel,
    barrier_model,
    barrier_potential,
    keldysh_exponent,
    landau_calibrated_rate,
    landau_closed_form,
    landau_log_transmittance,
    turning_points,
    wkb_exponent,
    wkb_transmittance,
    zero_field_inner_turning_point,
)
from starkdim.errors import (DomainError, IntegrationFailure, NoBarrier,
                             NoReference, NumericalError)

BARRIER_CASES = ((1.0, 0.05), (1.0, 0.004), (0.5, 0.01), (0.25, 0.05),
                 (0.75, 0.02))


def test_potential_spot_value():
    # 2/8 + 0.05*8 - 1 + 1/64 = -0.334375, all terms binary-exact
    assert barrier_potential(1.0, 0.05, 8.0) == 0.08359375


def test_potential_domain():
    with pytest.raises(DomainError):
        barrier_potential(1.0, 0.05, 0.0)
    with pytest.raises(DomainError):
        barrier_potential(1.0, 0.05, -3.0)
    with pytest.raises(DomainError):
        barrier_potential(2.0, 0.05, 1.0)
    with pytest.raises(DomainError):
        barrier_potential(1.0, 0.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            barrier_potential(1.0, bad, 1.0)
    with pytest.raises(DomainError):
        barrier_potential(1.0, 0.05, math.nan)


# deep barriers: the turning points lie 13 and 15 decades apart, and the
# inner one nearly as far below the end y_min of its search bracket
DEEP_BARRIER_CASES = ((0.01, 1e-6), (0.01, 1e-8))


@pytest.mark.parametrize("p,field", BARRIER_CASES + DEEP_BARRIER_CASES)
def test_turning_points_against_cubic_roots(p, field):
    """The turning points are the two positive roots of the numerator
    cubic; mpmath's polynomial root finder at 40 digits is the oracle."""
    y1, y2 = turning_points(p, field)
    with mp.workdps(40):
        pm, fm = mp.mpf(p), mp.mpf(field)
        roots = mp.polyroots([fm, -1 / pm**2, 2, pm * (2 - pm)],
                             maxsteps=200, extraprec=60)
        pos = sorted(float(mp.re(r)) for r in roots
                     if abs(mp.im(r)) < mp.mpf(10) ** -30 and mp.re(r) > 0)
    assert len(pos) == 2
    assert y1 == pytest.approx(pos[0], rel=1e-12)
    assert y2 == pytest.approx(pos[1], rel=1e-12)
    assert abs(barrier_potential(p, field, y1)) < 1e-10
    assert abs(barrier_potential(p, field, y2)) < 1e-10
    assert barrier_potential(p, field, 0.5 * (y1 + y2)) > 0.0


@pytest.mark.parametrize("p,field", ((0.02, 1e-5),) + DEEP_BARRIER_CASES)
def test_third_root_against_cubic_roots(p, field):
    """The negative root of the cubic, which the barrier integrand reads,
    against mpmath's roots at 40 digits.  The root sum 1/(field p^2) - y1 -
    y2 was off by 8.6e-6, 1.4e-3 and 7.1e-2 relative at these barriers."""
    y3 = wkb._third_root(p, field, *turning_points(p, field))
    with mp.workdps(40):
        pm, fm = mp.mpf(p), mp.mpf(field)
        roots = mp.polyroots([fm, -1 / pm**2, 2, pm * (2 - pm)],
                             maxsteps=200, extraprec=60)
        ref = min(float(mp.re(r)) for r in roots)
    assert ref < 0.0
    assert y3 == pytest.approx(ref, rel=1e-15)


def test_turning_points_reference_case():
    y1, y2 = turning_points(1.0, 0.05)
    assert y1 == pytest.approx(2.74, abs=0.01)
    assert y2 == pytest.approx(17.7, abs=0.1)


def test_no_barrier_conditions():
    # discriminant negative: the cubic has one real root only
    with pytest.raises(NoBarrier):
        turning_points(1.0, 10.0)
    # discriminant positive but the local minimum stays above zero
    with pytest.raises(NoBarrier):
        turning_points(1.0, 0.15)


def test_zero_field_limit_of_inner_turning_point():
    assert zero_field_inner_turning_point(1.0) == 1.0 + math.sqrt(2.0)
    for p in (1.0, 0.5, 0.25):
        y1, _ = turning_points(p, 1e-6)
        assert y1 == pytest.approx(zero_field_inner_turning_point(p),
                                   rel=1e-3)


@pytest.mark.parametrize("p,field",
                         ((1.0, 0.05), (1.0, 0.01), (0.5, 0.02), (0.25, 0.1)))
def test_exponent_against_mpmath_quadrature(p, field):
    mp.mp.dps = 30
    y1, y2 = turning_points(p, field)

    def rho(y):
        u = -(mp.mpf(2) / y + mp.mpf(field) * y - 1 / mp.mpf(p) ** 2
              + mp.mpf(p) * (2 - mp.mpf(p)) / y**2) / 4
        # endpoint rounding can push u a hair negative
        if u <= 0:
            return mp.mpf(0)
        return 2 * mp.sqrt(u)

    ref = float(mp.quad(rho, [mp.mpf(y1), mp.mpf(y2)]))
    assert wkb_exponent(p, field) == pytest.approx(ref, rel=5e-10)


def test_transmittance_monotone_in_field():
    fields = (0.01, 0.02, 0.04, 0.08)
    values = [wkb_transmittance(1.0, f) for f in fields]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p,grid", (
    (1.0, (0.05, 0.02, 0.01, 0.004)),
    (0.5, (0.05, 0.02, 0.01)),
))
def test_exponent_approaches_keldysh_term(p, grid):
    """The numeric tunneling exponent is dominated by the universal
    2/(3 p^3 field) term as the field decreases: the ratio walks toward 1
    and sits within 10% at the weakest field."""
    ratios = [wkb_exponent(p, f) / (keldysh_exponent(p) / f) for f in grid]
    gaps = [abs(r - 1.0) for r in ratios]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= 0.1


def test_deep_barrier_exponent_converges():
    """An exponent near 7e11 converges under the relative tolerance and
    sits on the 2/(3 p^3 field) term."""
    value = wkb_exponent(0.01, 1e-6)
    assert value == pytest.approx(keldysh_exponent(0.01) / 1e-6, rel=1e-6)


def _has_barrier(p, field):
    try:
        turning_points(p, field)
    except NoBarrier:
        return False
    return True


# (p, field) on the four rate-comparison grids, the 240 of their fields below
# the over-barrier threshold, and every tenth grid field that has a barrier
COMPARISON_GRID = [((alpha - 1.0) / 2.0, field)
                   for alpha, lo, hi in LANDAU_COMPARISON_RANGES
                   for field in np.geomspace(lo, hi, 101).tolist()]
COMPARISON_BARRIERS = [case for case in COMPARISON_GRID if _has_barrier(*case)]
GRID_SAMPLE = [case for case in COMPARISON_GRID[::10]
               if case in COMPARISON_BARRIERS]
# deep barriers, where y1 sits 8 to 15 decades below y2
DEEP_EXPONENT_CASES = ((0.02, 1e-5), (0.01, 1e-6), (0.01, 1e-8), (0.25, 1e-5))


def _barrier_integral(p, field, y1, y2):
    """2 * integral of sqrt(U) between the given turning points, to 40
    digits, in the factored form the package integrates: sqrt(field (y - y1)
    (y2 - y) (y - y3)) / y, y3 from the root sum.  Splitting the range at
    y1 * 2 * 8^k lets mpmath's own tanh-sinh rule resolve the 1/y scale."""
    with mp.workdps(40):
        fm, y1, y2 = mp.mpf(field), mp.mpf(y1), mp.mpf(y2)
        y3 = 1 / (fm * mp.mpf(p) ** 2) - y1 - y2
        cuts, y = [y1], 2 * y1
        while 2 * y < y2:
            cuts.append(y)
            y *= 8
        cuts += [(cuts[-1] + y2) / 2, y2]
        return mp.quad(lambda y: mp.sqrt(fm * (y - y1) * (y2 - y) * (y - y3))
                       / y, cuts)


@pytest.mark.parametrize("p,field,rel", [
    *((p, f, 1e-12) for p, f in DEEP_EXPONENT_CASES),
    *((p, f, 2e-15) for p, f in GRID_SAMPLE)])
def test_exponent_against_40_digit_integral(p, field, rel):
    """The quadrature against mpmath between the same turning points: deep
    barriers within 1e-12 (2e-13 at p = 0.02, field = 1e-5) and every tenth
    field of the comparison grids within 2e-15."""
    ref = _barrier_integral(p, field, *turning_points(p, field))
    assert abs(wkb_exponent(p, field) - ref) <= rel * ref


def test_exponent_work_on_comparison_grids(monkeypatch):
    """Every barrier of the four comparison grids converges by the fourth
    level of the rule: at most 13 + 12 + 26 + 52 = 103 integrand
    evaluations."""
    levels = []
    original = wkb._level
    monkeypatch.setattr(wkb, "_level",
                        lambda n: levels.append(n) or original(n))
    assert len(COMPARISON_BARRIERS) == 240
    for p, field in COMPARISON_BARRIERS:
        levels.clear()
        wkb_exponent(p, field)
        assert sum(len(original(n)) for n in levels) <= 103, (p, field)


def test_exponent_failure_names_the_barrier(monkeypatch):
    """With the rule cut to its first level no two levels can agree, so the
    integral raises IntegrationFailure naming p and the field."""
    monkeypatch.setattr(wkb, "_MAX_HALVINGS", 0)
    with pytest.raises(IntegrationFailure, match=r"p=1\.0, field=0\.05"):
        wkb_exponent(1.0, 0.05)


def test_closed_form_is_exp_of_log_form():
    for p, field in BARRIER_CASES:
        log_t = landau_log_transmittance(p, field)
        assert landau_closed_form(p, field) == math.exp(log_t)


@pytest.mark.parametrize("p,field", [(1.0, 7e307), (1.0, 1e308),
                                     (1.0, 1.7976931348623157e308)])
def test_closed_form_log_at_largest_fields(p, field):
    """Where p^2 field y1 overflows, the log is summed factor by factor;
    40-digit mpmath of the same formula is the oracle."""
    with mp.workdps(40):
        p_, f_ = mp.mpf(p), mp.mpf(field)
        y1 = p_**2 + p_ * mp.sqrt(2 * p_)
        exact = (p_ * mp.log(4 / (p_**2 * f_ * y1)) - 2 / (3 * p_**3 * f_)
                 + y1 / p_)
    assert landau_log_transmittance(p, field) == pytest.approx(
        float(exact), rel=1e-15)


@pytest.mark.parametrize("p", [0.1, 1.0])
def test_closed_form_log_at_smallest_field(p):
    """At the smallest subnormal field the exponent 2/(3 p^3 field)
    overflows, so the log is -inf and the closed form its 0.0."""
    assert landau_log_transmittance(p, 5e-324) == -math.inf
    assert landau_closed_form(p, 5e-324) == 0.0


@given(p=st.floats(min_value=0.05, max_value=1.95))
@settings(max_examples=60, deadline=None)
def test_keldysh_identity(p):
    """The exponent coefficient written via the ionization potential equals
    2 / (3 p^3)."""
    assert keldysh_exponent(p) == pytest.approx(2.0 / (3.0 * p**3),
                                                rel=1e-14)


def test_barrier_model_bundle():
    model = barrier_model(1.0, 0.05)
    y1, y2 = turning_points(1.0, 0.05)
    assert model.y1 == y1 and model.y2 == y2
    assert model.transmittance == wkb_transmittance(1.0, 0.05)


def test_barrier_model_validation():
    with pytest.raises(ValueError):
        BarrierModel(p=1.0, field=0.05, y1=3.0, y2=2.0, transmittance=0.5)
    with pytest.raises(ValueError):
        BarrierModel(p=1.0, field=0.05, y1=2.0, y2=3.0, transmittance=1.5)
    with pytest.raises(ValueError):
        BarrierModel(p=1.0, field=0.05, y1=2.0, y2=3.0, transmittance=-0.1)
    with pytest.raises(DomainError):
        BarrierModel(p=2.5, field=0.05, y1=2.0, y2=3.0, transmittance=0.5)
    with pytest.raises(DomainError):
        BarrierModel(p=1.0, field=-1.0, y1=2.0, y2=3.0, transmittance=0.5)
    # zero transmittance is legal: deep barriers underflow
    BarrierModel(p=1.0, field=0.001, y1=2.0, y2=3.0, transmittance=0.0)
    # a non-finite field is invalid input, not a failed root search
    for bad in (math.nan, math.inf):
        for call in (wkb_exponent, landau_closed_form, barrier_model):
            with pytest.raises(DomainError):
                call(1.0, bad)


@pytest.mark.parametrize("p,lowest", [(0.02, 4.5e-100), (1.5, 8e-104)])
def test_barrier_just_above_tiny_field_limit(p, lowest):
    """Down to the float-range limit of the cubic the exponent stays the
    weak-field Keldysh value over the field."""
    exponent = wkb_exponent(p, lowest)
    assert exponent == pytest.approx(keldysh_exponent(p) / lowest, rel=1e-12)
    assert barrier_model(p, lowest).transmittance == 0.0


@pytest.mark.parametrize("p,field", [
    (0.02, 4e-100), (1.5, 7e-104), (1.0, 1e-300), (0.5, 5e-324),
    (1.0, 5e-324), (1.98, 1e-310)])
def test_barrier_below_tiny_field_limit_raises(p, field):
    """Below about 1e-100 the cubic overflows at the outer turning point
    (OverflowError, ZeroDivisionError or an unresolved [inf, inf] bracket
    before): every barrier call raises a NumericalError naming p, the field
    and the stage."""
    for call in (turning_points, wkb_exponent, barrier_model,
                 wkb_transmittance):
        with pytest.raises(NumericalError) as info:
            call(p, field)
        assert type(info.value) is NumericalError
        assert f"turning points at p={p}, field={field}:" in str(info.value)


def test_calibration_point_is_first_usable_in_order():
    """The constant is fixed at the first field, in the order given, whose
    Gamma exceeds the floor: on an ascending grid the lowest such field,
    and no later field with a larger Gamma is preferred."""
    field, curve = landau_calibrated_rate(
        1.0, (0.1, 0.2, 0.3, 0.4), (1e-40, 0.0, 1e-8, 1e-5))
    assert field == 0.3
    assert dict(curve)[0.3] == pytest.approx(1e-8, rel=1e-12)
    field, _ = landau_calibrated_rate(
        1.0, (0.4, 0.1, 0.2, 0.3), (1e-5, 1e-40, 0.0, 1e-8))
    assert field == 0.4


def test_calibration_requires_signal():
    # the floor itself, zero and NaN are not usable
    with pytest.raises(NoReference):
        landau_calibrated_rate(1.0, (0.1, 0.2, 0.3, 0.4),
                               (1e-40, 0.0, CALIBRATION_FLOOR, math.nan))
    with pytest.raises(NoReference):
        landau_calibrated_rate(1.0, (), ())


def test_calibration_reads_gammas_up_to_its_field():
    """An iterator of Gamma values is read no further than the first
    usable one, so a caller evaluates no rate past the calibration field."""
    def gammas():
        yield from (0.0, 1e-35, 1e-9)
        raise AssertionError("Gamma read past the calibration field")

    fields = (0.05, 0.06, 0.08, 0.12)
    field, curve = landau_calibrated_rate(1.0, fields, gammas())
    assert field == 0.08
    assert [f for f, _ in curve] == list(fields)


def test_calibrated_rate_exact_at_anchor():
    fields = (0.05, 0.08, 0.12)
    field, curve = landau_calibrated_rate(1.0, fields, (1e-20, 1e-9, 1e-4))
    assert field == 0.05
    assert [f for f, _ in curve] == list(fields)
    # the anchor is the lowest usable point and reproduces its own rate
    assert curve[0][1] == pytest.approx(1e-20, rel=1e-12)
    rates = [r for _, r in curve]
    assert all(b > a for a, b in zip(rates, rates[1:]))


def test_calibrated_rate_overflow_is_numerical_error():
    """Calibrated at field 1e-4, the closed form scales by e^6667: the rate
    at 0.5 overflows, and the error names p and that field."""
    with pytest.raises(NumericalError, match=r"\(p=1.0, field=0.5\)"):
        landau_calibrated_rate(1.0, (1e-4, 0.5), (1.0,))


def test_calibration_reference_underflow_is_numerical_error():
    """At a reference field of 1e-310 the closed form underflows to 0.0, so
    no finite constant scales it: an error naming p and the reference
    field, where [(1e-310, nan), (0.5, inf)] came back before."""
    with pytest.raises(NumericalError, match=r"\(p=1.0, field=1e-310\)"):
        landau_calibrated_rate(1.0, (1e-310, 0.5), (1.0,))
