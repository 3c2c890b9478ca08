"""Exact series engine: recursion steps, known values, symbolic polynomials."""

import hashlib
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
from starkdim import coeffs
from starkdim.coeffs import RationalPolynomial
from starkdim.errors import (
    InvalidDimension,
    NumericalError,
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


@pytest.mark.parametrize(
    "alpha", [Fraction(5, 2), Fraction(1001, 1000)], ids=str
)
def test_logderiv_rows_solve_channel_relation(alpha):
    """Rows at a non-integer channel scale satisfy the order-k relation
    c_t = p ((t + 1 + p) c_{t+1} - s_t), a_k = -p c_0, checked in Fractions,
    where s is x at order 1 and minus the sum of z_i z_{k-i} after it."""
    pm = unperturbed_params(alpha)
    p = pm.p
    hist = [logderiv_step(0, [], pm)]
    for k in range(1, 7):
        hist.append(logderiv_step(k, hist, pm))
        s = [Fraction(0)] * (k + 1)
        if k == 1:
            s[1] = Fraction(1)
        for i in range(1, k):
            for m, cm in enumerate(hist[i][0].poly.coefficients):
                for n, cn in enumerate(hist[k - i][0].poly.coefficients):
                    s[m + n] -= cm * cn
        c = list(hist[k][0].poly.coefficients) + [Fraction(0)]
        for t in range(k + 1):
            assert c[t] == p * ((t + 1 + p) * c[t + 1] - s[t])
        assert hist[k][1] == -p * c[0]


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


@pytest.mark.parametrize(
    "alpha", [Fraction(3), Fraction(5, 2), Fraction(-7, 3)], ids=str)
def test_factor_polynomial_restores_energy(alpha):
    """E_2n = -(alpha + 1) ((alpha - 1)/4)^(6n-2) factor(alpha), exactly."""
    sym = symbolic_energy_series(8)
    for n in range(1, 9):
        factor = sym.factor_polynomial(n)
        assert factor.degree == 2 * n - 1
        assert sym.evaluate(n, alpha) == (
            -(alpha + 1) * ((alpha - 1) / 4) ** (6 * n - 2)
            * factor.evaluate(alpha))


def test_factor_polynomial_remainder_is_engine_defect():
    broken = coeffs.SymbolicEnergySeries(
        order=1, e_polys=(RationalPolynomial((1, 0, 1)),))
    with pytest.raises(NumericalError, match="not divisible"):
        broken.factor_polynomial(1)


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


def test_rational_polynomial_is_a_value():
    """Coefficients, evaluation and printing only: polynomial arithmetic
    runs on the engine's integer ring."""
    poly = RationalPolynomial((1, Fraction(-1, 2), 0, 0))
    assert poly.coefficients == (Fraction(1), Fraction(-1, 2))
    assert poly.degree == 1 and poly and not RationalPolynomial.zero()
    assert poly.evaluate(Fraction(4)) == -1 and poly.evaluate(4.0) == -1.0
    with pytest.raises(TypeError):
        poly + poly
    with pytest.raises(TypeError):
        poly * 2


def _sha256(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of repr(e_coeffs) and repr(beta_series) at order 20, recorded from
# the Fraction-based engine that the integer engine replaced
_ORDER20_PINS = {
    Fraction(3): (
        "5a90be08ce951276b12cd01865bd96ac35869e73bca2e131b4707eca4c51a695",
        "4ee531f07f2b00da4b6ebda272a96a1382d5a85b73aedc838ffb392f0297471e",
    ),
    Fraction(5, 2): (
        "da5d0548ed0a294567801c3e2f00fd81117afdb4a760c102971fc80fc4879245",
        "563ad8b8cf9f6ba4e31797745df20a0d9351df5da539efdcea5ca90d904c5403",
    ),
    Fraction(17, 4): (
        "b9a4a42a4c4c18a5af152160d368d5ba67e67377c9de63df7d5e87eb2b3a0b66",
        "57252486b9b739627f283f6f108f2d2d53148a34962e4a96a9d3435398d233b6",
    ),
    Fraction(11, 3): (
        "ee3c0ce6a00dd8a93beab44796b66127a86b8e270b15e052b6ec9a3dd24ec847",
        "fc7e2a52b9dd0d2cce0e508c4ca00a659bf6f8f727fc4d892e006f988fbb8e21",
    ),
    Fraction(1001, 1000): (
        "bc3d1ab381426345783689474a5c47374ff5ca8553061a32aa8eaafb8c8dc9bc",
        "750ddc6c305bb65dba06e4760da22ed4d26b3329985ad51de5444ad6aba7400c",
    ),
    Fraction(41, 2): (
        "ee41cea3dc3b5a57b9a03ea4b7c2a59de7c0c4329ca55c7146cfb29110d6e16f",
        "ad83c66cbfc92539fe5375ae4113c488010c36386b62da316f6e86ddca3f196f",
    ),
}


@pytest.mark.parametrize("alpha", list(_ORDER20_PINS), ids=str)
def test_exact_series_pinned_bit_for_bit(alpha):
    es = energy_series(alpha, 20)
    digests = (_sha256(es.e_coeffs), _sha256(es.beta_series))
    assert digests == _ORDER20_PINS[alpha]


def test_symbolic_series_pinned_bit_for_bit():
    assert _sha256(symbolic_energy_series(8).e_polys) == (
        "fe08d858592d0567ff178fbe263fcd73f8e663b6e0476a358b947628a97dfdae"
    )


@pytest.mark.parametrize(
    "run",
    [
        lambda: energy_series(Fraction(5, 2), 3),
        lambda: symbolic_energy_series(2),
        lambda: separation_series(unperturbed_params(3), 2, +1),
    ],
    ids=["exact", "symbolic", "separation"],
)
def test_route_disagreement_is_detected(monkeypatch, run):
    """A wrong moment-route value must trip the origin/moment cross-check."""
    moment = coeffs._moment_route
    monkeypatch.setattr(
        coeffs, "_moment_route", lambda *args: moment(*args) + 1
    )
    with pytest.raises(NumericalError, match="routes"):
        run()


@pytest.mark.parametrize(
    "alpha",
    [Fraction(3), Fraction(5, 2), Fraction(7, 3), Fraction(1001, 1000)],
    ids=str,
)
def test_symbolic_order10_matches_exact_series(alpha):
    sym = symbolic_energy_series(10)
    es = energy_series(alpha, 10)
    for n in range(1, 11):
        assert sym.evaluate(n, alpha) == es.e_coeffs[n]
