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
integer polynomial in p (an element of Z[p]).  The symbolic mode runs it on
plain ints at p = 2^W, with W proven wider than every coefficient it reads,
and takes each polynomial off the base-2^W digits of its value.  At rational
alpha, with p = P/q in lowest terms, each value is an integer over a power of
q fixed by its place in the recursion, so the exact mode runs on plain ints
that carry that one power-of-q denominator implicitly.  A float alpha runs
the identical recursion in double precision.  Fraction and RationalPolynomial
appear only at the API boundary, where the engine's ints become exact results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .errors import (
    InvalidDimension,
    NumericalError,
    OrderMismatch,
    OrderTooLarge,
    OutOfRange,
)

DEFAULT_ORDER_CAP = 20


def _is_exact(value) -> bool:
    # bools are ints, but alpha <= 1 rejects them anyway
    return isinstance(value, Rational)


# ---------------------------------------------------------------------------
# exact polynomial values


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    A result value: polynomial arithmetic runs on the engine's integer ring.
    Coefficients are stored ascending by power; trailing zeros are stripped
    so that equality is structural.  The zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

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


@dataclass(frozen=True)
class DimensionParams:
    """Dimension parameter and derived ground-state quantities.

    p = (alpha - 1)/2 sets the effective Coulomb scale; e0 = -1/(2 p^2) is
    the unperturbed ground-state energy and ip = -e0 the ionization
    potential, in the natural units of the problem.
    """

    alpha: object
    p: object
    e0: object
    ip: object

    def __post_init__(self):
        _validate_alpha(self.alpha)
        if not (self.p > 0 and self.e0 < 0):
            raise InvalidDimension("inconsistent derived parameters")


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
    range or the int-to-str digit limit."""
    try:
        if len(text := str(alpha)) <= 20:
            return text
    except ValueError:
        pass
    from decimal import Context

    value, context = Fraction(alpha), Context(prec=6)
    return format(context.divide(value.numerator, value.denominator)
                  .normalize(context), "g")


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


@dataclass(frozen=True)
class EnergySeries:
    """Even energy coefficients E_{2n} for n = 0..order.

    ``e_coeffs[n]`` multiplies the 2n-th power of the field.  ``beta_series``
    holds the intermediate inverse-energy-scale expansion in the variable
    u = (field/4)^2.  Plain container: value-level invariants (signs,
    divergence pattern) are asserted by the test suite for engine-produced
    series, so that externally constructed series remain representable.
    """

    alpha: object
    order: int
    e_coeffs: tuple
    beta_series: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "e_coeffs", tuple(self.e_coeffs))
        object.__setattr__(self, "beta_series", tuple(self.beta_series))
        if len(self.e_coeffs) != self.order + 1:
            raise OrderMismatch(
                f"expected {self.order + 1} coefficients, got {len(self.e_coeffs)}"
            )


@dataclass(frozen=True)
class SymbolicEnergySeries:
    """Energy coefficients as exact polynomials in the dimension alpha.

    ``e_polys[n-1]`` is E_{2n} for n = 1..order.  The zeroth coefficient
    -1/(2 p^2) is not polynomial in alpha and is deliberately excluded;
    use :func:`unperturbed_params` for it.
    """

    order: int
    e_polys: tuple

    def __post_init__(self):
        object.__setattr__(self, "e_polys", tuple(self.e_polys))
        if len(self.e_polys) != self.order:
            raise OrderMismatch(
                f"expected {self.order} polynomials, got {len(self.e_polys)}"
            )

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
        scale = -(4 ** (6 * n - 2))
        coeffs = [c * scale for c in self.energy_polynomial(n).coefficients]
        for root in [-1] + [1] * (6 * n - 2):
            coeffs, remainder = _divide_linear(coeffs, root)
            if remainder:
                factor = "alpha + 1" if root < 0 else "alpha - 1"
                raise NumericalError(f"E_{2 * n} is not divisible by {factor}")
        return RationalPolynomial(tuple(coeffs))

    def evaluate(self, n: int, alpha):
        return self.energy_polynomial(n).evaluate(alpha)


def _divide_linear(coeffs, root):
    """(quotient, remainder) of the ascending ``coeffs`` by (x - root), by
    synthetic division."""
    out = list(coeffs)
    for k in range(len(out) - 2, -1, -1):
        out[k] += root * out[k + 1]
    return out[1:], (out[0] if out else 0)


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
    of alpha), kept as an independent cross-check of the series engine."""
    if n not in _REFERENCE_FACTORS:
        raise OutOfRange("reference data covers n = 1..4 only")
    return RationalPolynomial(tuple(Fraction(c) for c in _REFERENCE_FACTORS[n]))


# ---------------------------------------------------------------------------
# ring-generic recursion engine
#
# The helpers below use only +, - and * on ring elements and small ints.
# The channel scale enters as p = P/q, with P a ring element and q an int,
# so every value is an integer polynomial in p whose degree is bounded by
# its place in the recursion.  Each value is carried times q to that bound,
# which makes it an integer: the x^t coefficient of z_k times q^(4k-1-2t),
# that of the order-k source term times q^(4k-2-2t), a_k times q^(4k), and
# the u^n coefficients of y, B and B^2 times q^(8n).  These powers add along
# every product the recursion forms, so all terms of a sum carry the same
# power and nothing is ever rescaled; q itself appears only in the (t + 1)
# factor of the solve and the (p + j) factors of the moment route.  Rings:
#   - exact mode, rational alpha: Python ints, with P/q = p in lowest
#     terms; the power of q is divided out once per value when results
#     become Fractions;
#   - symbolic mode: Python ints, with P = 2^W and q = 1: each polynomial
#     in p evaluated at p = 2^W (see the packed evaluation below);
#   - float mode: floats, with P = p and q = 1, which leaves exactly the
#     floating-point operations of the plain recursion.


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
    without divisions; the residual 1/x term then fixes the separation
    coefficient a_k = -p*c_0.
    """
    k = len(src) - 1
    c = [zero] * (k + 1)
    c[k] = -(P * src[k])
    for t in range(k - 1, -1, -1):
        c[t] = P * (c[t + 1] * ((t + 1) * q) + c[t + 1] * P - src[t])
    return c, -(P * c[0])


def _moment_route(src, P, q, zero):
    """Separation coefficient from the weighted-moment solvability condition.

    Each moment of x^j against the channel weight contributes
    p^(j+1) * p (p+1) ... (p+j); summing against the source gives a_k by a
    route independent of the coefficient solve above.
    """
    total = zero
    power = P
    rising = P
    for j, s in enumerate(src):
        if j:
            power = power * P
            rising = rising * (P + j * q)
        total = total + s * power * rising
    return total


def _routes_agree(u, v) -> bool:
    if isinstance(u, float) or isinstance(v, float):
        scale = max(abs(u), abs(v), 1.0)
        return abs(u - v) <= 1e-9 * scale
    return u == v


def _logderiv_run(P, q, one, order):
    """z_1..z_order coefficient rows and a_1..a_order over the ring of P,
    carried with their powers of q (see above)."""
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
        acc = zero
        for j in range(1, k + 1):
            acc = acc + s[j] * inv[k - j]
        inv[k] = -acc
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


def _beta_series(a_vals, order, one):
    """Inverse-energy-scale series B(u) solving 1/B = 2 sum a_{2n} u^n B^-6n
    (``a_vals`` holds a_1..a_{2 order}): the reciprocal of y = 1/B."""
    y = _y_series([a + a for a in a_vals[1::2]], order, one)
    return _ser_inverse_unit(tuple(y), order, one, one - one)


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
# d_n = [B^2]_n, of degree 8n in p, is read back as 8n + 1 signed base-2^W
# digits once every coefficient is below 2^(W-1) in magnitude.  The bound:
#   Sign lemma: at P = p, q = 1, the p-coefficients of z_k have sign (-1)^k
#   and those of a_k sign (-1)^(k+1).  By induction: the order-1 source is
#   x, and for k >= 2 the source -sum z_i z_{k-i} has sign (-1)^(k+1);
#   _solve_down's c_k = -p src_k, c_t = p ((t+1) c_{t+1} + p c_{t+1} - src_t)
#   and a_k = -p c_0 add terms of one sign.  So ||a_k|| (the sum of
#   |coefficients|) is |a_k(1)|, from a scalar run at p = 1 (alpha = 3).
#   Majorant: ||f + g|| <= ||f|| + ||g|| and ||fg|| <= ||f|| ||g||, so the y
#   pass fed 2|a_2n(1)| gives y^_k >= ||y_k||; as B_k = -sum y_j B_{k-j},
#   the reciprocal of 1 - sum y^_j u^j has B^_k >= ||B_k||, and
#   [B^^2]_n >= ||d_n|| >= every |coefficient| of d_n.


def _packing_width(order):
    """Digit width W of the packed symbolic run at ``order``: every
    p-coefficient of d_1..d_order and of a_1..a_{2 order} lies below
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
    q = p.denominator
    rows, a_vals = _logderiv_run(p.numerator, q, 1, order)
    polys = [(-1 / (2 * p),)] + [  # z_0 = 1/(1 - alpha) = -1/(2p)
        [Fraction(c, q ** (4 * k - 1 - 2 * t)) for t, c in enumerate(row)]
        for k, row in enumerate(rows, 1)]
    a = [Fraction(1, 2)] + [
        Fraction(v, q ** (4 * k)) for k, v in enumerate(a_vals, 1)]
    return tuple(map(RationalPolynomial, polys)), tuple(a)


def energy_series(alpha, order: int, cap: int = DEFAULT_ORDER_CAP) -> EnergySeries:
    """Even energy coefficients E_{2n} for n = 0..order at fixed dimension.

    Rational ``alpha`` runs the recursion on ints and returns Fractions;
    float ``alpha`` runs the identical algorithm in double precision.
    """
    if not isinstance(order, int) or order < 1:
        raise OutOfRange("order must be an integer >= 1")
    if order > cap:
        raise OrderTooLarge(f"order {order} exceeds the configured cap {cap}")
    params = unperturbed_params(alpha)
    exact = _is_exact(params.alpha)
    if exact:
        P, q, one = params.p.numerator, params.p.denominator, 1
    else:
        P, q, one = params.p, 1, 1.0
    _, a_vals = _logderiv_run(P, q, one, 2 * order)
    beta = _beta_series(a_vals, order, one)
    beta_sq = [_cauchy(beta, beta, n, one - one) for n in range(order + 1)]
    if exact:
        # beta_n and its square carry q^(8n); e0 = -q^2 / (2 P^2)
        beta = tuple(Fraction(b, q ** (8 * n)) for n, b in enumerate(beta))
        e_coeffs = [
            Fraction(-s * q * q, 2 * P * P * 16 ** n * q ** (8 * n))
            for n, s in enumerate(beta_sq)
        ]
    else:
        e_coeffs = [
            math.ldexp(params.e0 * s, -4 * n) for n, s in enumerate(beta_sq)
        ]
    return EnergySeries(
        alpha=params.alpha,
        order=order,
        e_coeffs=tuple(e_coeffs),
        beta_series=beta,
    )


def symbolic_energy_series(order: int, cap: int = DEFAULT_ORDER_CAP) -> SymbolicEnergySeries:
    """E_{2n} for n = 1..order as exact polynomials in alpha.

    The recursion runs over integer polynomials in the channel scale p,
    evaluated at p = 2^W so that each is one int; the overall -1/(2 p^2)
    energy scale divides out exactly (every composed coefficient carries at
    least p^2), and p = (alpha - 1)/2 is substituted at the end.
    """
    if not isinstance(order, int) or order < 1:
        raise OutOfRange("order must be an integer >= 1")
    if order > cap:
        raise OrderTooLarge(f"order {order} exceeds the configured cap {cap}")
    width = _packing_width(order)
    _, a_vals = _logderiv_run(1 << width, 1, 1, 2 * order)
    beta = _beta_series(a_vals, order, 1)
    polys = []
    for n in range(1, order + 1):
        d = _unpack(_cauchy(beta, beta, n, 0), width, 8 * n + 1)
        if any(d[:2]):
            raise NumericalError(f"E_{2 * n} does not carry the factor p^2")
        polys.append(_alpha_polynomial(d[2:], -2 * 16 ** n))
    return SymbolicEnergySeries(order=order, e_polys=tuple(polys))
