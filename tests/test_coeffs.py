"""Exact series engine: recursion steps, known values, symbolic polynomials."""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkdim import (
    channel_series,
    energy_series,
    reference_factor_polynomial,
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
    polys, a = channel_series(3, 3)
    assert polys[0].coefficients == (Fraction(-1, 2),) and a[0] == Fraction(1, 2)
    assert a[1] == 2
    assert polys[1].coefficients == (Fraction(-2), Fraction(-1))
    assert a[2] == -18
    assert polys[2].coefficients == (Fraction(18), Fraction(7), Fraction(1))
    assert a[3] == 356


@pytest.mark.parametrize(
    "alpha", [Fraction(5, 2), Fraction(1001, 1000)], ids=str
)
def test_logderiv_rows_solve_channel_relation(alpha):
    """Rows at a non-integer channel scale satisfy the order-k relation
    c_t = p ((t + 1 + p) c_{t+1} - s_t), a_k = -p c_0, checked in Fractions,
    where s is x at order 1 and minus the sum of z_i z_{k-i} after it."""
    p = unperturbed_params(alpha).p
    polys, a = channel_series(alpha, 6)
    assert [z.degree for z in polys] == list(range(7))
    for k in range(1, 7):
        s = [Fraction(0)] * (k + 1)
        if k == 1:
            s[1] = Fraction(1)
        for i in range(1, k):
            for m, cm in enumerate(polys[i].coefficients):
                for n, cn in enumerate(polys[k - i].coefficients):
                    s[m + n] -= cm * cn
        c = list(polys[k].coefficients) + [Fraction(0)]
        for t in range(k + 1):
            assert c[t] == p * ((t + 1 + p) * c[t + 1] - s[t])
        assert a[k] == -p * c[0]


def test_channel_series_is_one_engine_run(monkeypatch):
    """Every order comes from a single run of the recursion engine."""
    runs = []
    engine = coeffs._logderiv_run
    monkeypatch.setattr(
        coeffs, "_logderiv_run", lambda *args: runs.append(args) or engine(*args)
    )
    polys, a = channel_series(Fraction(5, 2), 8)
    assert len(runs) == 1 and len(polys) == len(a) == 9


def test_channel_series_takes_a_float_at_its_binary_value():
    assert channel_series(2.5, 5) == channel_series(Fraction(5, 2), 5)
    polys, a = channel_series(1.1, 3)
    assert (polys, a) == channel_series(Fraction(1.1), 3)
    assert polys[0].coefficients == (1 / (1 - Fraction(1.1)),)
    assert all(isinstance(x, Fraction) for x in a)


def test_channel_series_validation():
    assert channel_series(3, 0) == (
        (RationalPolynomial((Fraction(-1, 2),)),), (Fraction(1, 2),))
    with pytest.raises(OutOfRange):
        channel_series(3, -1)
    with pytest.raises(InvalidDimension):
        channel_series(1, 2)
    with pytest.raises(InvalidDimension):
        channel_series(float("nan"), 2)


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
    a = channel_series(alpha, 2 * order)[1]
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
    assert RationalPolynomial(()).to_string() == "0"


def test_rational_polynomial_is_a_value():
    """Coefficients, evaluation and printing only: polynomial arithmetic
    runs on the engine's integer ring."""
    poly = RationalPolynomial((1, Fraction(-1, 2), 0, 0))
    assert poly.coefficients == (Fraction(1), Fraction(-1, 2))
    assert poly.degree == 1 and poly and not RationalPolynomial(())
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


# the same digests for float energy_series(x, 20), recorded before the symbolic
# mode moved onto the integer engine: the float ring's operations are pinned
_FLOAT_ORDER20_PINS = {
    77 / 64: (
        "d9cc0fcd9af07b740912407a0003849071b7b8f5423377f7874108ed0bb4fda0",
        "8261b707373701f25ff358502578d2dd0209c525f375bb6f7337787d18ed0849",
    ),
    2.5: (
        "b283acde8546b9bbc07183e99d36c402bc8080b98b6e1d5a87d4a55a2dc2370d",
        "d88995ac80a919be783bf1b2d27400305185edcab5f89adeadafc0d15d4f3077",
    ),
    3.0: (
        "08b8e968a42b982adc35176fa67c61fdd6b27d66b81095e8a99a29dda71ee310",
        "78589b481bb350250a163fcc2623beca945820b35909390e66470d1e790ae914",
    ),
    4.28125: (
        "f694003dfc5d70746fe7bf4cd3d87d490c6a5ebce4ff78e26b8c2d11f9006175",
        "58899927de5c45023299499de2249eef8094db93e39bc3818fe05711baaec24d",
    ),
    6.0: (
        "dae21eb3abf47d584864912aad353853ddbe2ca19424826cf3ee5a43588ea189",
        "819e77697b44cae64101d1c49da400e03bec62b0889b363638eb2c7318ca3b26",
    ),
}


@pytest.mark.parametrize("alpha", list(_FLOAT_ORDER20_PINS), ids=str)
def test_float_series_pinned_bit_for_bit(alpha):
    es = energy_series(alpha, 20)
    digests = (_sha256(es.e_coeffs), _sha256(es.beta_series))
    assert digests == _FLOAT_ORDER20_PINS[alpha]


def test_symbolic_series_pinned_bit_for_bit():
    assert _sha256(symbolic_energy_series(8).e_polys) == (
        "fe08d858592d0567ff178fbe263fcd73f8e663b6e0476a358b947628a97dfdae"
    )


@pytest.mark.parametrize(
    "run",
    [
        lambda: energy_series(Fraction(5, 2), 3),
        lambda: symbolic_energy_series(2),
        lambda: channel_series(3, 2),
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


# packed symbolic evaluation: the digit width comes from a proven bound


def test_sign_lemma_in_packed_run():
    """a_k's p-coefficients all have sign (-1)^(k+1), so their absolute sum
    is |a_k(1)|, the value at alpha = 3 that the width bound reads."""
    order = 12
    width = coeffs._packing_width(order)
    _, packed = coeffs._logderiv_run(1 << width, 1, 1, 2 * order)
    _, at_one = coeffs._logderiv_run(1, 1, 1, 2 * order)
    for k, (value, scalar) in enumerate(zip(packed, at_one), 1):
        digits = coeffs._unpack(value, width, 4 * k + 1)
        assert all((-1) ** (k + 1) * c >= 0 for c in digits), k
        assert sum(map(abs, digits)) == abs(scalar), k


@pytest.mark.parametrize("order", range(1, 13))
def test_packed_digits_stay_inside_width(monkeypatch, order):
    """Every coefficient of d_n read off at the computed width lies below
    2^(W-2): two bits of headroom over the read-off's 2^(W-1)."""
    unpack, seen = coeffs._unpack, []

    def spy(value, width, count):
        digits = unpack(value, width, count)
        seen.append(count)
        assert all(abs(c) < 1 << (width - 2) for c in digits)
        return digits

    monkeypatch.setattr(coeffs, "_unpack", spy)
    symbolic_energy_series(order)
    assert seen == [8 * n + 1 for n in range(1, order + 1)]


@pytest.mark.parametrize(
    "alpha", [Fraction(9, 7), Fraction(7, 2), Fraction(31, 5)], ids=str)
def test_symbolic_order12_matches_exact_series(alpha):
    sym = symbolic_energy_series(12)
    es = energy_series(alpha, 12)
    assert [sym.evaluate(n, alpha) for n in range(1, 13)] == list(es.e_coeffs[1:])


def test_packed_remainder_is_engine_defect(monkeypatch):
    """A value with more digits than the read-off expects raises, rather
    than yielding a silently truncated table.  (A width only a little too
    small can carry into the middle digits and leave no remainder, which
    is why the width comes from a proven bound.)"""
    assert coeffs._unpack(-5 + (3 << 8), 8, 2) == [-5, 3]
    with pytest.raises(NumericalError, match="digits"):
        coeffs._unpack(1 << 16, 8, 2)
    monkeypatch.setattr(coeffs, "_packing_width", lambda order: 4)
    with pytest.raises(NumericalError, match="exceeds 9 digits"):
        symbolic_energy_series(4)


@pytest.mark.parametrize(
    "alpha", [Fraction(3, 2), Fraction(5, 2), Fraction(3), Fraction(7, 2)],
    ids=str)
def test_large_order_ratio_extrapolates_to_one(alpha):
    """The rate goes as exp(-b/F) at weak field, b = 2/(3 p^3), so the
    series diverges as E_{2n+2}/E_{2n} ~ 2n(2n+1)/b^2 (1 + c/n + ...).  The
    ratio r_n = E_{2n+2}/E_{2n} b^2/(2n(2n+1)) from exact coefficients to
    order 30, Richardson-extrapolated to fourth order in 1/n over
    n = 25..29 (Bender and Orszag, section 8.1), gives 1 + 3e-6 at
    alpha = 3/2 up to 1 + 2e-5 at 7/2.  The scale b comes from the
    barrier, not from the engine, so a wrong power of q or a dropped
    source term shows here."""
    e = energy_series(alpha, 30, cap=30).e_coeffs
    b = Fraction(2) / (3 * ((alpha - 1) / 2) ** 3)
    m, first = 4, 25
    extrapolated = sum(
        e[n + 1] / e[n] * b * b / (2 * n * (2 * n + 1))
        * Fraction((-1) ** (k + m) * n ** m,
                   math.factorial(k) * math.factorial(m - k))
        for k, n in enumerate(range(first, first + m + 1)))
    assert abs(extrapolated - 1) <= Fraction(1, 10_000)
