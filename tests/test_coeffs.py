"""Exact series engine: recursion steps, known values, symbolic polynomials."""

import hashlib
import math
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkdim import (
    channel_series,
    energy_series,
    reference_factor_polynomial,
    standard_model,
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
        energy_series("3", 2)  # a string is not a dimension
    with pytest.raises(InvalidDimension):
        unperturbed_params(Fraction(1))


def test_order_validation(monkeypatch, empty_tables):
    """Both energy modes reject an order that is not an int >= 1, or one
    past the cap, before any engine run (the symbolic width bound is one)."""
    def no_engine(*args):
        raise AssertionError("engine ran before the order check")

    monkeypatch.setattr(coeffs, "_logderiv_run", no_engine)
    monkeypatch.setattr(coeffs, "_packing_width", no_engine)
    for make in (lambda order: energy_series(3, order), symbolic_energy_series):
        for order, error in ((0, OutOfRange), (2.0, OutOfRange),
                             (21, OrderTooLarge)):
            with pytest.raises(error):
                make(order)


def test_energy_series_shape_checked():
    from starkdim import EnergySeries

    with pytest.raises(OrderMismatch):
        EnergySeries(alpha=3.0, order=2, e_coeffs=(1.0,))


def test_polynomial_string_round_trip():
    poly = RationalPolynomial((Fraction(3), Fraction(2)))
    assert poly.to_string("alpha") == "2*alpha + 3"
    assert RationalPolynomial(()).to_string() == "0"
    assert RationalPolynomial((1, 0, 2)).to_string() == "2*x^2 + 1"


def test_tables_reject_orders_they_lack():
    """The reference factor polynomials cover n = 1..4, and a symbolic
    table its own orders 1..N."""
    with pytest.raises(OutOfRange):
        reference_factor_polynomial(5)
    with pytest.raises(OutOfRange):
        symbolic_energy_series(3).energy_polynomial(0)


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


# the same digests for float energy_series(x, 20), re-pinned when the engine
# moved to the rescaled recursion, whose float operations differ: against the
# earlier bits E_2n moved by up to 2.7e-15 and beta_n by up to 2.4e-15
# relative (both at alpha = 2.5), and float mode stays within 2e-15 of the
# exact engine (test_float_matches_exact_at_order20)
_FLOAT_ORDER20_PINS = {
    77 / 64: (
        "875a5ada00cf86462a58963e714e5d5e0246d765d516069c1749f99c1b681f2b",
        "75b20ef9d8d197275d88bf01d7a60e9b3cc3a0ece6efe36c55c7cc2dd8122aac",
    ),
    2.5: (
        "ea6eefe3fa790296f97ba3ca176a145940c23a40e86b7a9b62cb07f6aa73d3b9",
        "e17f1488197ea6132456efe195895d09852a61963f4068454834766afc62bca6",
    ),
    3.0: (
        "cf49070d66312addf1a88f457fa7def694b6679a89373ff85ea363b43dde206f",
        "6deafd1bb804cb73e31262dea11640610dca94bf53362995de1add4cb32deab7",
    ),
    4.28125: (
        "5487a21d4f9d73d3af5f741e7aad4fdb16316bcccbfa585489240c4931be01b6",
        "14becbff21291f57e39b6d3e947e89deedcca18e8d9a0fd21b4748f93a0c4109",
    ),
    6.0: (
        "493581d28bf76ff7b661cc7d8671e8c2378f2138605a61ea5fd3c52a3edfdac7",
        "d8b70879756283e5fa4adbc8654af9f88cb2bc93bc4c8948222415a2fcff436b",
    ),
}


@pytest.mark.parametrize("alpha", list(_FLOAT_ORDER20_PINS), ids=str)
def test_float_series_pinned_bit_for_bit(alpha):
    es = energy_series(alpha, 20)
    digests = (_sha256(es.e_coeffs), _sha256(es.beta_series))
    assert digests == _FLOAT_ORDER20_PINS[alpha]


def _relative_errors(alpha, order):
    """|float - exact| / |exact| over E_2n and beta_n at the binary alpha,
    taken against the smallest normal float where the exact value lies
    below it, so that an underflowed value must be its correct rounding."""
    ef, ex = energy_series(alpha, order), energy_series(Fraction(alpha), order)
    pairs = list(zip(ef.e_coeffs, ex.e_coeffs)) + list(
        zip(ef.beta_series, ex.beta_series))
    tiny = Fraction(sys.float_info.min)
    return [abs(Fraction(f) - e) / max(abs(e), tiny) for f, e in pairs]


@pytest.mark.parametrize("k", range(77, 385, 8))
def test_float_matches_exact_at_order20(k):
    """Float mode at the order cap agrees with the exact engine at the same
    binary alpha = k/64 to 2e-15 relative, E_2n and beta_n alike."""
    assert max(_relative_errors(k / 64, 20)) <= Fraction(2, 10 ** 15)


@pytest.mark.parametrize("alpha", [1 + 1e-5, 1 + 1e-8, 1 + 2 ** -52], ids=str)
def test_float_mode_near_unit_dimension(alpha):
    """As alpha -> 1 the high orders underflow: float mode rounds them as
    the exact values round, to -0.0 or a subnormal, and keeps 2e-15 on the
    rest, with no leading coefficient of a z_k lost to underflow."""
    assert max(_relative_errors(alpha, 20)) <= Fraction(2, 10 ** 15)


@pytest.mark.parametrize(
    "alpha, order, n",
    [(100.0, 20, 40), (1e30, 4, 4), (1e100, 4, 2), (1e300, 4, 2),
     (86.13147382777713, 20, 40), (5233220590.259229, 4, 8)],
    ids=str)
def test_float_overflow_names_first_coefficient(alpha, order, n):
    """Past the float range float mode raises NumericalError naming alpha
    and the first E_n that overflows, the same n at which the exact value
    leaves the float range; it never returns inf or NaN."""
    message = f"energy coefficient n={n} overflows a float (alpha={alpha!r})"
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        energy_series(alpha, order)
    exact = energy_series(Fraction(alpha), order)
    values = exact.e_coeffs[n // 2], exact.beta_series[n // 2]
    with pytest.raises(OverflowError):
        [float(v) for v in values]
    for v in exact.e_coeffs[:n // 2] + exact.beta_series[:n // 2]:
        float(v)


@pytest.mark.parametrize(
    "alpha, order", [(86.13147382777711, 20), (5233220590.259228, 4)], ids=str)
def test_float_range_limit_completes(alpha, order):
    """The largest float alpha that completes at orders 20 and 4."""
    es = energy_series(alpha, order)
    assert all(map(math.isfinite, es.e_coeffs + es.beta_series))


def test_standard_model_past_float_range():
    with pytest.raises(NumericalError, match=r"n=4 .*\(alpha=1e\+30\)"):
        standard_model(1e30)


def test_symbolic_series_pinned_bit_for_bit():
    assert _sha256(symbolic_energy_series(8).e_polys) == (
        "fe08d858592d0567ff178fbe263fcd73f8e663b6e0476a358b947628a97dfdae"
    )


# kept tables: a repeated call returns the series or table made first


def test_kept_tables_keep_every_bit(empty_tables):
    """From emptied tables, the series made on a miss and the one taken on
    a hit are one record with the pinned bits, exact and float alike; 5/2
    and 2.5, equal as numbers, keep an exact and a float table apart."""
    pins = [(alpha, _ORDER20_PINS[alpha]) for alpha in (Fraction(5, 2),
                                                        Fraction(41, 2))]
    pins += [(alpha, _FLOAT_ORDER20_PINS[alpha]) for alpha in (2.5, 77 / 64)]
    for alpha, pin in pins:
        es = energy_series(alpha, 20)
        assert energy_series(alpha, 20) is es
        assert (_sha256(es.e_coeffs), _sha256(es.beta_series)) == pin
    table = symbolic_energy_series(8)
    assert symbolic_energy_series(8) is table
    assert _sha256(table.e_polys) == (
        "fe08d858592d0567ff178fbe263fcd73f8e663b6e0476a358b947628a97dfdae")
    assert energy_series(3, 4) is energy_series(Fraction(3), 4)
    assert coeffs._energy_table.cache_info().currsize == 5


def test_tables_keep_no_error(empty_tables):
    """An order past the cap is checked before the lookup, also where the
    table is kept, and a float run that overflows raises the same message
    on every call; neither keeps anything."""
    energy_series(3, 6)
    symbolic_energy_series(6)
    kept = [table.cache_info().currsize for table in (coeffs._energy_table,
                                                      coeffs._symbolic_table)]
    message = ("energy coefficient n=40 overflows a float"
               " (alpha=86.13147382777713)")
    for _ in range(2):
        for make in (lambda: energy_series(3, 21),
                     lambda: energy_series(3, 6, cap=5),
                     lambda: symbolic_energy_series(21),
                     lambda: symbolic_energy_series(6, cap=5)):
            with pytest.raises(OrderTooLarge):
                make()
        with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
            energy_series(86.13147382777713, 20)
    assert [table.cache_info().currsize for table in (
        coeffs._energy_table, coeffs._symbolic_table)] == kept == [1, 1]


def test_tables_stay_within_their_bound(empty_tables):
    """40 dimensions, exact and float, and 18 symbolic orders: each table
    keeps the 16 used last."""
    for k in range(40):
        energy_series(Fraction(7 + k, 4), 4)
        energy_series((7 + k) / 4 + 0.125, 4)
        assert coeffs._energy_table.cache_info().currsize <= 16
    for order in range(1, 19):
        symbolic_energy_series(order)
        assert coeffs._symbolic_table.cache_info().currsize <= 16
    assert coeffs._energy_table.cache_info().currsize == 16
    assert coeffs._symbolic_table.cache_info().currsize == 16


@pytest.mark.parametrize(
    "run",
    [
        lambda: energy_series(Fraction(5, 2), 3),
        lambda: symbolic_energy_series(2),
        lambda: channel_series(3, 2),
    ],
    ids=["exact", "symbolic", "separation"],
)
def test_route_disagreement_is_detected(monkeypatch, empty_tables, run):
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
    """The p-coefficients of the hatted a_k (a_k / p^(3k)) all have sign
    (-1)^(k+1), so their absolute sum is |a_k(1)|, the value at alpha = 3
    that the width bound reads."""
    order = 12
    width = coeffs._packing_width(order)
    _, packed = coeffs._logderiv_run(1 << width, 1, 1, 2 * order)
    _, at_one = coeffs._logderiv_run(1, 1, 1, 2 * order)
    for k, (value, scalar) in enumerate(zip(packed, at_one), 1):
        digits = coeffs._unpack(value, width, k + 1)
        assert all((-1) ** (k + 1) * c >= 0 for c in digits), k
        assert sum(map(abs, digits)) == abs(scalar), k


@pytest.mark.parametrize("order", range(1, 13))
def test_packed_digits_stay_inside_width(monkeypatch, empty_tables, order):
    """Every coefficient of d_n / p^(6n) read off at the computed width lies
    below 2^(W-2): two bits of headroom over the read-off's 2^(W-1)."""
    unpack, seen = coeffs._unpack, []

    def spy(value, width, count):
        digits = unpack(value, width, count)
        seen.append(count)
        assert all(abs(c) < 1 << (width - 2) for c in digits)
        return digits

    monkeypatch.setattr(coeffs, "_unpack", spy)
    symbolic_energy_series(order)
    assert seen == [2 * n + 1 for n in range(1, order + 1)]


def test_packed_run_holds_only_the_hatted_degrees():
    """At order 12 the x^t coefficient of z_k, divided by p^(3k-1-t), has
    degree k - t in p and a_k / p^(3k) degree k: packed, they unpack to at
    most k - t + 1 and k + 1 digits, with no zero digits at the bottom
    (the sign lemma holds for the rows too, so a width read from the run at
    p = 1 bounds every digit)."""
    order = 12
    rows_one, a_one = coeffs._logderiv_run(1, 1, 1, order)
    width = max(abs(v) for v in [*a_one, *sum(rows_one, ())]).bit_length() + 2
    rows, packed = coeffs._logderiv_run(1 << width, 1, 1, order)
    for k, (row, row_one) in enumerate(zip(rows, rows_one), 1):
        assert len(row) == k + 1
        for t, (value, scalar) in enumerate(zip(row, row_one)):
            digits = coeffs._unpack(value, width, k - t + 1)
            assert digits[0] and digits[-1], (k, t)
            assert sum(map(abs, digits)) == abs(scalar), (k, t)
    for k, value in enumerate(packed, 1):
        digits = coeffs._unpack(value, width, k + 1)
        assert digits[0] and digits[-1], k


@pytest.mark.parametrize(
    "alpha", [Fraction(9, 7), Fraction(7, 2), Fraction(31, 5)], ids=str)
def test_symbolic_order12_matches_exact_series(alpha):
    sym = symbolic_energy_series(12)
    es = energy_series(alpha, 12)
    assert [sym.evaluate(n, alpha) for n in range(1, 13)] == list(es.e_coeffs[1:])


def test_packed_remainder_is_engine_defect(monkeypatch, empty_tables):
    """A value with more digits than the read-off expects raises, rather
    than yielding a silently truncated table.  (A width only a little too
    small can carry into the middle digits and leave no remainder, which
    is why the width comes from a proven bound.)"""
    assert coeffs._unpack(-5 + (3 << 8), 8, 2) == [-5, 3]
    with pytest.raises(NumericalError, match="digits"):
        coeffs._unpack(1 << 16, 8, 2)
    monkeypatch.setattr(coeffs, "_packing_width", lambda order: 4)
    with pytest.raises(NumericalError, match="exceeds 3 digits"):
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


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(3)], ids=str)
def test_order40_against_closed_form_weak_field_width(alpha):
    """The exact coefficients to order 40 against the weak-field width in
    closed form, Gamma(F) ~ A F^(-p) e^(-b/F) (1 + a_1 F + ...) with
    p = (alpha - 1)/2, A = 4^p p^(-3p-2)/Gamma(p+1), b = 2/(3 p^3) and
    a_1 = -p^3 (33 p^2 + 54 p + 20)/12 (Landau and Lifshitz section 77,
    carried to the alpha-dimensional parabolic measure; hydrogen's
    (4/F) e^(-2/(3F)) (1 - 107 F/12) at p = 1).  Its dispersion image is
    E_2n ~ -(A/pi) Gamma(2n+p) b^-(2n+p) (1 + a_1 b/(2n) + ...).  The ratio
    r_n of E_2n to that leading term, fitted as c_0 + sum c_k/n^k,
    k = 1..8, through n = 32..40, has c_0 within 1e-6 of 1 (2.5e-9 off at
    alpha = 3/2, 1.8e-8 at 3) and c_1 within 1e-4 relative of a_1 b/2
    (8e-7 and 1.9e-6).  A, b and a_1 come from the barrier, never from the
    engine, so this checks every coefficient from order 20 to 40."""
    e = energy_series(alpha, 40, cap=40).e_coeffs
    ns = range(32, 41)
    with mpmath.workdps(50):
        p = (mpmath.mpf(alpha.numerator) / alpha.denominator - 1) / 2
        amp = 4 ** p * p ** (-3 * p - 2) / mpmath.gamma(p + 1)
        b = 2 / (3 * p ** 3)
        a1 = -p ** 3 * (33 * p ** 2 + 54 * p + 20) / 12
        ratios = [mpmath.mpf(e[n].numerator) / e[n].denominator
                  / (-(amp / mpmath.pi) * mpmath.gamma(2 * n + p)
                     * b ** -(2 * n + p)) for n in ns]
        fit = mpmath.lu_solve(
            mpmath.matrix([[mpmath.mpf(n) ** -k for k in range(9)]
                           for n in ns]),
            mpmath.matrix(ratios))
        assert abs(fit[0] - 1) <= 1e-6
        assert abs(fit[1] / (a1 * b / 2) - 1) <= 1e-4
