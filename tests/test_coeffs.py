"""Exact series engine: recursion steps, known values, symbolic polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkdim import (
    energy_series,
    logderiv_step,
    reference_factor_polynomial,
    separation_series,
    symbolic_energy_series,
    unperturbed_params,
)
from starkdim.coeffs import RationalPolynomial
from starkdim.errors import (
    InvalidDimension,
    OrderMismatch,
    OrderTooLarge,
    OutOfRange,
)


def test_logderiv_first_orders_alpha3():
    """Hand-checked first recursion steps at alpha = 3 (channel scale 1)."""
    pm = unperturbed_params(3)
    hist = []
    for k in range(4):
        step, a = logderiv_step(k, hist, pm)
        hist.append((step, a))
    assert hist[1][1] == 2
    assert hist[1][0].poly.coefficients == (Fraction(-2), Fraction(-1))
    assert hist[2][1] == -18
    assert hist[2][0].poly.coefficients == (Fraction(18), Fraction(7), Fraction(1))
    assert hist[3][1] == 356


def test_separation_series_mirror_symmetry():
    """The mirrored channel flips the sign of every odd coefficient."""
    pm = unperturbed_params(Fraction(5, 2))
    up = separation_series(pm, 5, +1)
    down = separation_series(pm, 5, -1)
    assert down.coefficients == tuple(
        c if n % 2 == 0 else -c for n, c in enumerate(up.coefficients)
    )
    assert up.beta2 == down.coefficients
    assert down.beta1 == up.coefficients


def test_known_energy_values_exact():
    es = energy_series(3, 3)
    assert es.e_coeffs[0] == Fraction(-1, 2)
    assert es.e_coeffs[1] == Fraction(-9, 4)
    assert es.e_coeffs[2] == Fraction(-3555, 64)
    assert es.e_coeffs[3] == Fraction(-2512779, 512)
    assert energy_series(2, 1).e_coeffs[1] == Fraction(-21, 256)


def _truncated_product(u, v):
    return [sum(u[i] * v[k - i] for i in range(k + 1)) for k in range(len(u))]


@pytest.mark.parametrize("alpha", [Fraction(3), Fraction(5, 2)])
def test_beta_series_solves_its_defining_equation(alpha):
    """y = 1/B satisfies y = sum 2 a_{2n} u^n y^6n through order 12."""
    order = 12
    beta = energy_series(alpha, order).beta_series
    a = separation_series(unperturbed_params(alpha), 2 * order, +1).coefficients
    assert beta[0] == 1
    y = [Fraction(1)]
    for k in range(1, order + 1):
        y.append(-sum(beta[j] * y[k - j] for j in range(1, k + 1)))
    y6 = [Fraction(1)] + [Fraction(0)] * order
    for _ in range(6):
        y6 = _truncated_product(y6, y)
    rhs = [Fraction(0)] * (order + 1)
    power = [Fraction(1)] + [Fraction(0)] * order  # y^6n
    for n in range(order + 1):
        for m in range(order + 1 - n):
            rhs[n + m] += 2 * a[2 * n] * power[m]
        power = _truncated_product(power, y6)
    assert rhs == y


def test_known_energy_values_float_mode():
    es = energy_series(3.0, 3)
    assert es.e_coeffs[1] == pytest.approx(-2.25, rel=1e-12)
    assert es.e_coeffs[2] == pytest.approx(-3555 / 64, rel=1e-12)
    assert es.e_coeffs[3] == pytest.approx(-2512779 / 512, rel=1e-12)


def test_factor_polynomials_match_reference():
    """Engine-produced scaled polynomials equal the independently recorded
    reference tuples, as exact rational equality."""
    sym = symbolic_energy_series(4)
    for n in range(1, 5):
        assert sym.factor_polynomial(n) == reference_factor_polynomial(n)


def test_degeneracy_at_unit_dimension():
    sym = symbolic_energy_series(4)
    for n in range(1, 5):
        assert sym.energy_polynomial(n).evaluate(1) == 0


def test_float_mode_tracks_symbolic_evaluation():
    sym = symbolic_energy_series(8)
    for alpha in (1.5, 2.0, 2.5, 3.0):
        ef = energy_series(alpha, 8)
        for n in range(1, 9):
            exact = float(sym.energy_polynomial(n).evaluate(Fraction(alpha)))
            assert ef.e_coeffs[n] == pytest.approx(exact, rel=1e-12)


@given(
    alpha=st.fractions(
        min_value=Fraction(11, 10), max_value=Fraction(4), max_denominator=16
    )
)
@settings(max_examples=25, deadline=None)
def test_series_signs_and_divergence(alpha):
    """Every coefficient is negative and the term ratios grow without bound,
    the factorial-divergence signature."""
    e = energy_series(alpha, 8).e_coeffs
    assert all(x < 0 for x in e)
    ratios = [abs(e[n + 1] / e[n]) for n in range(1, 8)]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


@given(
    alpha=st.fractions(
        min_value=Fraction(11, 10), max_value=Fraction(4), max_denominator=12
    ),
    n=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_symbolic_evaluation_matches_exact_series(alpha, n):
    sym = symbolic_energy_series(4)
    es = energy_series(alpha, 4)
    assert sym.evaluate(n, alpha) == es.e_coeffs[n]


def test_invalid_dimension_rejected():
    with pytest.raises(InvalidDimension):
        energy_series(1, 4)
    with pytest.raises(InvalidDimension):
        energy_series(0.5, 4)
    with pytest.raises(InvalidDimension):
        unperturbed_params(Fraction(1))


def test_order_validation():
    with pytest.raises(OutOfRange):
        energy_series(3, 0)
    with pytest.raises(OrderTooLarge):
        energy_series(3, 21)
    with pytest.raises(OutOfRange):
        symbolic_energy_series(0)


def test_energy_series_shape_checked():
    from starkdim import EnergySeries

    with pytest.raises(OrderMismatch):
        EnergySeries(alpha=3.0, order=2, e_coeffs=(1.0,))


def test_polynomial_string_round_trip():
    poly = RationalPolynomial((Fraction(3), Fraction(2)))
    assert poly.to_string("alpha") == "2*alpha + 3"
    assert RationalPolynomial.zero().to_string() == "0"
