"""Exact weak-field perturbation series for a hydrogen-like atom in
non-integer dimension alpha > 1.

The separated problem splits into two one-dimensional channels that differ
only by the sign of the field term, so one channel's coefficients give both.
Expanding the logarithmic derivative of its solution in the scaled field gives
a linear recursion for polynomial corrections z_k(x); regularity at the origin
and at infinity fixes the separation coefficients a_k (:func:`channel_series`).
Composing the two channels so that their separation constants sum to the
inverse energy scale yields the even energy coefficients E_{2n}.

The recursion is division-free: it uses only +, - and * on the channel
scale p = (alpha - 1)/2 and small integers, so every value it forms is an
integer polynomial in p (an element of Z[p]).  Every value carries a power
of p known from its place in the recursion, so the engine runs on the
values with that power divided out, which leaves polynomials of low degree.
The symbolic mode runs it on plain ints at p = 2^W, with W proven wider than
every coefficient it reads, and takes each polynomial off the base-2^W
digits of its value.  At rational alpha, with p = P/q in lowest terms, each
value is an integer over the power of q equal to its degree in p: q^(k-t)
for the x^t coefficient of z_k, q^k for a_k and q^(2n) for the n-th term of
the energy pass.  So the exact mode runs on plain ints that carry that one
denominator implicitly.  A float alpha runs the identical recursion in double
precision.  The known powers of p and q are put back once, where Fraction
and RationalPolynomial results leave the engine.

A dimension fixes its tables before any field is evaluated, so they are
kept: ``energy_series`` keeps the 16 series it made last, keyed by order
and by alpha, a Fraction for rational input and the float for float input,
and ``symbolic_energy_series`` its 16 tables made last, keyed by order.  A
repeated call returns the kept record itself without running the engine:
callers share it, which is safe as records are immutable.  The order's cap
is checked before the lookup and is not part of the key.  An error is never
kept, so a failed run raises again on every call.  Threads share the
tables without a lock: two that miss at once each run the engine and
return equal records, one of which is kept.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Rational

from . import DEFAULT_ORDER_CAP
from ._record import Record
from .errors import (
    InvalidDimension,
    NumericalError,
    OrderMismatch,
    OrderTooLarge,
    OutOfRange,
)


def _is_exact(value) -> bool:
    # bools are ints, but alpha <= 1 rejects them anyway
    return isinstance(value, Rational)


# ---------------------------------------------------------------------------
# exact polynomial values


class RationalPolynomial(Record):
    """Dense univariate polynomial with exact rational coefficients.

    A result value: polynomial arithmetic runs on the engine's integer ring.
    Coefficients are stored ascending by power; trailing zeros are stripped
    so that equality is structural.  The zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    def __init__(self, coefficients: tuple):
        coeffs = tuple(Fraction(c) for c in coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.__dict__["coefficients"] = coeffs

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def evaluate(self, value):
        """Horner evaluation; exact for Rational input, float otherwise."""
        acc = Fraction(0) if isinstance(value, Rational) else 0.0
        for c in reversed(self.coefficients):
            acc = acc * value + c
        return acc

    def to_string(self, variable: str = "x") -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            else:
                var = variable if power == 1 else f"{variable}^{power}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# dimension parameters


class DimensionParams(Record):
    """Dimension parameter and derived ground-state quantities.

    p = (alpha - 1)/2 sets the effective Coulomb scale; e0 = -1/(2 p^2) is
    the unperturbed ground-state energy and ip = -e0 the ionization
    potential, in the natural units of the problem.
    """

    def __init__(self, alpha, p, e0, ip):
        _validate_alpha(alpha)
        if not (p > 0 and e0 <= 0):  # e0 = -0.0 once p^2 passes the float range
            raise InvalidDimension("inconsistent derived parameters")
        d = self.__dict__
        d["alpha"], d["p"], d["e0"], d["ip"] = alpha, p, e0, ip


def _validate_alpha(alpha) -> None:
    if isinstance(alpha, float):
        if not math.isfinite(alpha):
            raise InvalidDimension(f"dimension must be finite, got {alpha!r}")
    elif not _is_exact(alpha):
        raise InvalidDimension(f"dimension must be a real number, got {alpha!r}")
    if not alpha > 1:
        raise InvalidDimension(
            f"dimension must exceed 1 strictly, got {alpha!r}"
        )


def format_alpha(alpha) -> str:
    """alpha for an error message: its own text up to 20 characters, else 6
    significant digits taken in Decimal, as alpha may lie past the float
    range or the int-to-str digit limit.  Where those read 1, the invalid
    dimension, alpha is named by its excess over 1 to 6 digits, as
    1+1e-12."""
    try:
        if len(text := str(alpha)) <= 20:
            return text
    except ValueError:
        pass
    from decimal import Context

    context = Context(prec=6)

    def digits(value, spec):
        return format(context.divide(value.numerator, value.denominator)
                      .normalize(context), spec)

    value = Fraction(alpha)
    text = digits(value, "g")
    return text + digits(value - 1, "+g") if text == "1" else text


def unperturbed_params(alpha) -> DimensionParams:
    """Ground-state parameters for dimension ``alpha`` (strictly > 1).

    Rational input gives exact rational fields; float input gives floats.
    """
    _validate_alpha(alpha)
    if _is_exact(alpha):
        a = Fraction(alpha)
        p = (a - 1) / 2
        e0 = Fraction(-1) / (2 * p * p)
    else:
        a = float(alpha)
        p = (a - 1.0) / 2.0
        e0 = -1.0 / (2.0 * p * p)
    return DimensionParams(alpha=a, p=p, e0=e0, ip=-e0)


# ---------------------------------------------------------------------------
# result containers


class EnergySeries(Record):
    """Even energy coefficients E_{2n} for n = 0..order.

    ``e_coeffs[n]`` multiplies the 2n-th power of the field.  ``beta_series``
    holds the intermediate inverse-energy-scale expansion in the variable
    u = (field/4)^2.  Plain container: value-level invariants (signs,
    divergence pattern) are asserted by the test suite for engine-produced
    series, so that externally constructed series remain representable.
    """

    def __init__(self, alpha, order: int, e_coeffs: tuple,
                 beta_series: tuple = ()):
        e_coeffs, beta_series = tuple(e_coeffs), tuple(beta_series)
        if len(e_coeffs) != order + 1:
            raise OrderMismatch(
                f"expected {order + 1} coefficients, got {len(e_coeffs)}"
            )
        d = self.__dict__
        d["alpha"], d["order"], d["e_coeffs"], d["beta_series"] = (
            alpha, order, e_coeffs, beta_series)


class SymbolicEnergySeries(Record):
    """Energy coefficients as exact polynomials in the dimension alpha.

    ``e_polys[n-1]`` is E_{2n} for n = 1..order.  The zeroth coefficient
    -1/(2 p^2) is not polynomial in alpha and is deliberately excluded;
    use :func:`unperturbed_params` for it.
    """

    def __init__(self, order: int, e_polys: tuple):
        e_polys = tuple(e_polys)
        if len(e_polys) != order:
            raise OrderMismatch(
                f"expected {order} polynomials, got {len(e_polys)}"
            )
        d = self.__dict__
        d["order"], d["e_polys"] = order, e_polys

    def energy_polynomial(self, n: int) -> RationalPolynomial:
        if not isinstance(n, int) or not 1 <= n <= self.order:
            raise OutOfRange(f"n must lie in 1..{self.order}")
        return self.e_polys[n - 1]

    def factor_polynomial(self, n: int) -> RationalPolynomial:
        """Scaled coefficient polynomial of degree 2n - 1.

        Removes the common factor: E_{2n} = -(alpha + 1)
        ((alpha - 1)/4)^(6n-2) * factor(alpha).  The division is exact by
        construction; a nonzero remainder is an engine defect and raises
        ``NumericalError``.
        """
        energy = self.energy_polynomial(n).coefficients
        # one long division on integers: the coefficients are scaled by
        # their common denominator once and divided by it at the end, and
        # the divisor (alpha + 1)(alpha - 1)^m is monic
        common = math.lcm(*(c.denominator for c in energy))
        m = 6 * n - 2
        rest = [c.numerator * (common // c.denominator) * -(4 ** m)
                for c in energy]
        power = [(-1) ** (m - k) * math.comb(m, k) for k in range(m + 1)]
        divisor = [a + b for a, b in zip([0] + power, power + [0])]
        quotient = [0] * max(len(rest) - m - 1, 0)
        for k in reversed(range(len(quotient))):
            q = quotient[k] = rest[k + m + 1]
            for j, d in enumerate(divisor):
                rest[k + j] -= q * d
        if any(rest):
            raise NumericalError(
                f"E_{2 * n} is not divisible by (alpha + 1)(alpha - 1)^{m}")
        return RationalPolynomial(tuple(Fraction(c, common) for c in quotient))

    def evaluate(self, n: int, alpha):
        return self.energy_polynomial(n).evaluate(alpha)


_REFERENCE_FACTORS = {
    1: (3, 2),
    2: (1257, 1522, 645, 96),
    3: (2798946, 4278832, 2723556, 907744, 159146, 11776),
    4: (
        14478766161,
        25222378022,
        19432592955,
        8642479892,
        2410476263,
        423670118,
        43604973,
        2031616,
    ),
}


def reference_factor_polynomial(n: int) -> RationalPolynomial:
    """Known scaled coefficient polynomials for n = 1..4 (ascending powers
    of alpha), kept as an independent cross-check of the series engine.

    Public because it is reference data, not a second computation: the
    tests and the benchmark's ``series`` check compare the symbolic
    engine's output with it."""
    if n not in _REFERENCE_FACTORS:
        raise OutOfRange("reference data covers n = 1..4 only")
    return RationalPolynomial(tuple(Fraction(c) for c in _REFERENCE_FACTORS[n]))


# ---------------------------------------------------------------------------
# ring-generic recursion engine
#
# The helpers below use only +, - and * on ring elements and small ints.
# The channel scale enters as p = P/q, with P a ring element and q an int.
# The x^t coefficient of z_k is p^(3k-1-t) times a polynomial of degree k-t
# in p, and that of the order-k source p^(3k-2-t) times one of degree k-t,
# so the engine runs on the hatted values with those powers of p divided
# out: z_k[t] = p^(3k-1-t) z^_k[t], a_k = p^(3k) a^_k, and in the beta pass,
# whose variable becomes v = p^6 u, the u^n coefficients of y, B and B^2 are
# p^(6n) times their hatted values.  Each hatted value is carried times q to
# its degree in p, which makes it an integer: z^_k[t] and the source's
# x^t coefficient times q^(k-t), a^_k times q^k, and the v^n coefficients of
# y, B and B^2 times q^(2n).  These powers add along every product the
# recursion forms, so all terms of a sum carry the same power and nothing is
# ever rescaled; q itself appears only in the ((t + 1) q + P) factors of the
# solve and the (P + j q) factors of the moment route.  The known powers of P
# and q are put back once, where results leave the engine.  Rings:
#   - exact mode, rational alpha: Python ints, with P/q = p in lowest terms;
#   - symbolic mode: Python ints, with P = 2^W and q = 1: each polynomial
#     in p evaluated at p = 2^W (see the packed evaluation below);
#   - float mode: floats, with P = p and q = 1.


def _source(rows, k, one, zero):
    """Inhomogeneous term of the order-k channel relation.

    rows[i-1] holds the coefficients of z_i.  The order-1 source is the bare
    field term x; higher orders carry minus the self-convolution
    sum_{i=1}^{k-1} z_i z_{k-i}.  Its (i, k-i) and (k-i, i) products are
    equal, so each unordered pair is convolved once and doubled, and the
    middle square (even k) is added once.
    """
    if k == 1:
        return [zero, one]
    acc = [zero] * (k + 1)
    for i in range(1, (k + 1) // 2):
        zj = rows[k - i - 1]
        for m, cm in enumerate(rows[i - 1]):
            for n, cn in enumerate(zj, m):
                acc[n] = acc[n] + cm * cn
    acc = [s + s for s in acc]
    if k % 2 == 0:
        zi = rows[k // 2 - 1]
        for m, cm in enumerate(zi):
            for n, cn in enumerate(zi, m):
                acc[n] = acc[n] + cm * cn
    return [-s for s in acc]


def _solve_down(src, P, q, zero):
    """Unique polynomial solution of the order-k relation.

    Matching powers from the highest down determines every coefficient
    without divisions: c^_k = -s^_k and c^_t = ((t + 1) q + P) c^_{t+1} - s^_t.
    The residual 1/x term then fixes the separation coefficient a^_k = -c^_0.
    """
    k = len(src) - 1
    c = [zero] * (k + 1)
    c[k] = -src[k]
    for t in range(k - 1, -1, -1):
        c[t] = c[t + 1] * ((t + 1) * q + P) - src[t]
    return c, -c[0]


def _moment_route(src, P, q, zero):
    """Separation coefficient from the weighted-moment solvability condition.

    Each moment of x^j against the channel weight contributes
    p^(j+1) * p (p+1) ... (p+j); summed against the source, and with the
    known powers of p divided out, a^_k = sum_j s^_j (P + q) ... (P + j q), a
    route independent of the coefficient solve above.
    """
    total, rising = zero, 1
    for j, s in enumerate(src):
        if j:
            rising = rising * (P + j * q)
        total = total + s * rising
    return total


def _routes_agree(u, v) -> bool:
    if isinstance(u, float) or isinstance(v, float):
        if not (math.isfinite(u) and math.isfinite(v)):
            return True  # past the float range: energy_series names the E_n
        scale = max(abs(u), abs(v), 1.0)
        return abs(u - v) <= 1e-9 * scale
    return u == v


def _logderiv_run(P, q, one, order):
    """Hatted z_1..z_order coefficient rows and a_1..a_order over the ring
    of P, carried with their powers of q (see above)."""
    zero = one - one
    rows = []
    a_vals = []
    for k in range(1, order + 1):
        src = _source(rows, k, one, zero)
        coeffs, a_origin = _solve_down(src, P, q, zero)
        a_moment = _moment_route(src, P, q, zero)
        if not _routes_agree(a_origin, a_moment):
            raise NumericalError(
                f"order {k}: origin and moment routes for the separation"
                " coefficient disagree"
            )
        if coeffs[-1] == zero:
            raise OrderMismatch(f"z_{k} failed to reach degree {k}")
        rows.append(tuple(coeffs))
        a_vals.append(a_origin)
    return rows, a_vals


# truncated power-series helpers (tuples of ring elements, length order+1)


def _cauchy(u, v, k, zero):
    """Coefficient k of the product of two truncated series."""
    acc = zero
    for i in range(k + 1):
        acc = acc + u[i] * v[k - i]
    return acc


def _ser_inverse_unit(s, order, one, zero):
    """Reciprocal of a series with unit constant term (division-free)."""
    if s[0] != one:
        raise NumericalError("series reciprocal requires a unit constant term")
    inv = [one] + [zero] * order
    for k in range(1, order + 1):
        inv[k] = -_cauchy(s, inv, k, zero)  # its j = 0 term is inv[k] = 0
    return tuple(inv)


def _y_series(two_a, order, one):
    """y = 1/B solving y = sum two_a[n-1] u^n y^6n, y_0 = 1, in one pass:
    the u^k coefficient of the right side involves only y_0..y_{k-1}, so each
    order fixes y_k and extends the tables y^2, y^3, y^6 and y^6n by one."""
    zero = one - one
    y, y2, y3, y6 = [one], [one], [one], [one]
    powers = [None, y6]  # powers[n]: leading coefficients of y^6n
    for k in range(1, order + 1):
        if k > 1:
            y2.append(_cauchy(y, y, k - 1, zero))
            y3.append(_cauchy(y2, y, k - 1, zero))
            y6.append(_cauchy(y3, y3, k - 1, zero))
            for n in range(2, k):
                powers[n].append(_cauchy(powers[n - 1], y6, k - n, zero))
            powers.append([one])
        acc = zero
        for n in range(1, k + 1):
            acc = acc + two_a[n - 1] * powers[n][k - n]
        y.append(acc)
    return y


def _check_order(order, cap) -> None:
    if not isinstance(order, int) or order < 1:
        raise OutOfRange("order must be an integer >= 1")
    if order > cap:
        raise OrderTooLarge(f"order {order} exceeds the configured cap {cap}")


def _energy_pass(P, q, one, order):
    """(B, [B^2]_0..order) over the ring of P from one engine run: B(u)
    solves 1/B = 2 sum a_{2n} u^n B^-6n, the reciprocal of y = 1/B."""
    _, a_vals = _logderiv_run(P, q, one, 2 * order)
    y = _y_series([a + a for a in a_vals[1::2]], order, one)
    beta = _ser_inverse_unit(tuple(y), order, one, one - one)
    return beta, [_cauchy(beta, beta, n, one - one) for n in range(order + 1)]


def _alpha_polynomial(f, scale: int) -> RationalPolynomial:
    """f((alpha - 1)/2) / scale for int coefficients f (ascending in p)."""
    m = len(f) - 1
    acc = []  # 2^m f((alpha - 1)/2), built by Horner's rule in ints
    for i in range(m, -1, -1):
        acc = [0] + acc
        for j in range(len(acc) - 1):
            acc[j] -= acc[j + 1]
        acc[0] += f[i] << (m - i)
    return RationalPolynomial(tuple(Fraction(c, scale << m) for c in acc))


# packed symbolic evaluation
#
# p -> 2^W maps Z[p] into the ints and keeps +, - and *, so the integer
# engine run at P = 2^W, q = 1 forms each symbolic value exactly as one int;
# d^_n = [B^2]_n / p^(6n), of degree 2n in p, is read back as 2n + 1 signed
# base-2^W digits once every coefficient is below 2^(W-1) in magnitude, and
# E_2n = -p^(6n-2) d^_n / (2 16^n) is those digits shifted by 6n - 2.  The
# bound:
#   Sign lemma: at P = p, q = 1, the p-coefficients of z^_k have sign (-1)^k
#   and those of a^_k sign (-1)^(k+1).  By induction: the order-1 source is
#   x, and for k >= 2 the source -sum z^_i z^_{k-i} has sign (-1)^(k+1);
#   _solve_down's c^_k = -s^_k, c^_t = (t + 1 + p) c^_{t+1} - s^_t and
#   a^_k = -c^_0 add terms of one sign.  So ||a^_k|| (the sum of
#   |coefficients|) is |a^_k(1)| = |a_k(1)|, from a scalar run at p = 1
#   (alpha = 3), where hatted and plain values coincide.
#   Majorant: ||f + g|| <= ||f|| + ||g|| and ||fg|| <= ||f|| ||g||, so the y
#   pass fed 2|a_2n(1)| gives y^_k >= ||y_k||; as B_k = -sum y_j B_{k-j},
#   the reciprocal of 1 - sum y^_j v^j has B^_k >= ||B_k||, and
#   [B^^2]_n >= ||d^_n|| >= every |coefficient| of d^_n.


def _packing_width(order):
    """Digit width W of the packed symbolic run at ``order``: every
    p-coefficient of d^_1..d^_order and of a^_1..a^_{2 order} lies below
    2^(W-2) in magnitude, by the bound above."""
    _, a_unit = _logderiv_run(1, 1, 1, 2 * order)
    y = _y_series([2 * abs(a) for a in a_unit[1::2]], order, 1)
    beta = _ser_inverse_unit((1, *(-c for c in y[1:])), order, 1, 0)
    top = max(_cauchy(beta, beta, n, 0) for n in range(order + 1))
    return max(top, *map(abs, a_unit)).bit_length() + 2


def _unpack(value, width, count):
    """Signed base-2^width digits c_0..c_{count-1}, each |c| < 2^(width-1),
    of ``value``; a remainder past them is an engine defect."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    digits = []
    for _ in range(count):
        digits.append(c := ((value + half) & mask) - half)
        value = (value - c) >> width
    if value:
        raise NumericalError(f"packed value exceeds {count} digits")
    return digits


# ---------------------------------------------------------------------------
# public operations


def channel_series(alpha, order: int):
    """``(polys, a)``: z_0..z_order as RationalPolynomials (z_0 = 1/(1 - alpha),
    z_k of degree k) and a_0..a_order as Fractions (a_0 = 1/2), exact from one
    engine run, a float alpha taken at its exact binary value.  Each a_k is
    cross-checked between its origin and moment routes."""
    if not isinstance(order, int) or order < 0:
        raise OutOfRange("order must be a nonnegative integer")
    _validate_alpha(alpha)
    p = (Fraction(alpha) - 1) / 2
    P, q = p.numerator, p.denominator
    rows, a_vals = _logderiv_run(P, q, 1, order)
    polys = [(-1 / (2 * p),)] + [  # z_0 = 1/(1 - alpha) = -1/(2p)
        [Fraction(c * P ** (3 * k - 1 - t), q ** (4 * k - 1 - 2 * t))
         for t, c in enumerate(row)]
        for k, row in enumerate(rows, 1)]
    a = [Fraction(1, 2)] + [
        Fraction(v * P ** (3 * k), q ** (4 * k)) for k, v in enumerate(a_vals, 1)]
    return tuple(map(RationalPolynomial, polys)), tuple(a)


def _float_scaled(params, beta, beta_sq):
    """beta_n = p^(6n) b^_n and E_2n = -p^(6n-2) d^_n / (2 16^n) from a float
    run.  With p = m 2^e, each power of p is m^k then ldexp by e k, so no
    power overflows before its product does; a coefficient past the float
    range raises, naming the first n."""
    m, e = math.frexp(params.p)
    out_beta, e_coeffs = [beta[0]], [params.e0]
    for n in range(1, len(beta)):
        try:
            b = math.ldexp(beta[n] * m ** (6 * n), 6 * n * e)
            en = math.ldexp(-beta_sq[n] * m ** (6 * n - 2) / 2,
                            (6 * n - 2) * e - 4 * n)
        except OverflowError:
            b = en = math.inf
        if not (math.isfinite(b) and math.isfinite(en)):
            raise NumericalError(
                f"energy coefficient n={2 * n} overflows a float"
                f" (alpha={format_alpha(params.alpha)})")
        out_beta.append(b)
        e_coeffs.append(en)
    return tuple(out_beta), e_coeffs


def energy_series(alpha, order: int, cap: int = DEFAULT_ORDER_CAP) -> EnergySeries:
    """Even energy coefficients E_{2n} for n = 0..order at fixed dimension.

    Rational ``alpha`` runs the recursion on ints and returns Fractions;
    float ``alpha`` runs the identical algorithm in double precision.  The
    table is kept (see the module docstring): a repeated call returns the
    same series without running the engine.
    """
    _check_order(order, cap)
    _validate_alpha(alpha)
    return _energy_table(
        Fraction(alpha) if _is_exact(alpha) else float(alpha), order)


# typed: Fraction(5, 2) and 2.5 are equal keys, but one is an exact table
# and the other a float one
@lru_cache(maxsize=16, typed=True)
def _energy_table(alpha, order):
    params = unperturbed_params(alpha)
    exact = _is_exact(params.alpha)
    if exact:
        P, q, one = params.p.numerator, params.p.denominator, 1
    else:
        P, q, one = params.p, 1, 1.0
    beta, beta_sq = _energy_pass(P, q, one, order)
    if exact:
        # beta_n = P^(6n) b^_n / q^(8n), likewise d_n; e0 = -q^2 / (2 P^2)
        beta = tuple(Fraction(b * P ** (6 * n), q ** (8 * n))
                     for n, b in enumerate(beta))
        e_coeffs = [
            Fraction(-s * P ** (6 * n) * q * q, 2 * P * P * 16 ** n * q ** (8 * n))
            for n, s in enumerate(beta_sq)
        ]
    else:
        beta, e_coeffs = _float_scaled(params, beta, beta_sq)
    return EnergySeries(
        alpha=params.alpha,
        order=order,
        e_coeffs=tuple(e_coeffs),
        beta_series=beta,
    )


def symbolic_energy_series(order: int, cap: int = DEFAULT_ORDER_CAP) -> SymbolicEnergySeries:
    """E_{2n} for n = 1..order as exact polynomials in alpha.

    The recursion runs over integer polynomials in the channel scale p,
    evaluated at p = 2^W so that each is one int; the known factor p^(6n-2)
    of E_2n, the overall -1/(2 p^2) energy scale included, is a shift of the
    digits read off, and p = (alpha - 1)/2 is substituted at the end.  The
    table is kept, like :func:`energy_series`'s.
    """
    _check_order(order, cap)
    return _symbolic_table(order)


@lru_cache(maxsize=16)
def _symbolic_table(order):
    width = _packing_width(order)
    _, beta_sq = _energy_pass(1 << width, 1, 1, order)
    polys = []
    for n in range(1, order + 1):
        d = _unpack(beta_sq[n], width, 2 * n + 1)
        polys.append(_alpha_polynomial([0] * (6 * n - 2) + d, -2 * 16 ** n))
    return SymbolicEnergySeries(order=order, e_polys=tuple(polys))
