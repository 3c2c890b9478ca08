"""Exact weak-field perturbation series for a hydrogen-like atom in
non-integer dimension alpha > 1.

The separated problem splits into two one-dimensional channels that differ
only by the sign of the field term.  Expanding the logarithmic derivative of
a channel solution order by order in the scaled field gives a linear
recursion for polynomial corrections z_k(x); regularity at the origin and at
infinity fixes the channel separation coefficients a_k.  Composing the two
channel series under the constraint that the separation constants sum to the
inverse energy scale yields the even energy coefficients E_{2n}.

The recursion is division-free: it uses only +, - and * on the channel
scale p = (alpha - 1)/2 and small integers, so every value it forms is an
integer polynomial in p (an element of Z[p]).  The symbolic mode runs it on
integer-coefficient polynomials in p.  At rational alpha, with p = P/q in
lowest terms, each value is an integer over a power of q fixed by its place
in the recursion, so the exact mode runs on plain ints that carry that one
power-of-q denominator implicitly.  A float alpha runs the identical
recursion in double precision.  Fraction and RationalPolynomial appear only
at the API boundary, where the engine's ints become exact results.
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
# channel recursion containers


@dataclass(frozen=True)
class LogDerivSeries:
    """One order of the channel log-derivative expansion: z_k(x).

    z_0 is the constant 1/(1 - alpha); every later z_k is a polynomial of
    degree exactly k, which is verified on construction.
    """

    order: int
    poly: RationalPolynomial

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 0:
            raise OutOfRange("order must be a nonnegative integer")
        if self.poly.degree != self.order:
            raise OrderMismatch(
                f"z_{self.order} must have degree {self.order},"
                f" got degree {self.poly.degree}"
            )


@dataclass(frozen=True)
class SeparationSeries:
    """Separation-constant expansion of one channel in the scaled field.

    ``sign`` +1 selects the channel whose field term enters with a plus
    sign, -1 the mirrored channel; the two coefficient sequences differ
    term-by-term by (-1)^n.  ``beta1``/``beta2`` give both channel series
    regardless of which sign was computed.
    """

    sign: int
    coefficients: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise OutOfRange("sign must be +1 or -1")
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    @property
    def beta1(self) -> tuple:
        if self.sign == 1:
            return self.coefficients
        return _alternate_signs(self.coefficients)

    @property
    def beta2(self) -> tuple:
        if self.sign == -1:
            return self.coefficients
        return _alternate_signs(self.coefficients)


def _alternate_signs(coeffs: tuple) -> tuple:
    return tuple(c if n % 2 == 0 else -c for n, c in enumerate(coeffs))


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
#   - symbolic mode: _IntPoly in p, with P = p and q = 1;
#   - float mode: floats, with P = p and q = 1, which leaves exactly the
#     floating-point operations of the plain recursion.


class _IntPoly:
    """Polynomial in p with int coefficients: the symbolic mode's ring.

    Coefficients ascend by power with no trailing zeros, so that equality
    is structural; an int on the right acts as a constant.
    """

    __slots__ = ("c",)

    def __init__(self, coefficients):
        c = list(coefficients)
        while c and not c[-1]:
            c.pop()
        self.c = c

    def __add__(self, other):
        a = self.c
        b = other.c if isinstance(other, _IntPoly) else [other]
        if len(a) < len(b):
            a, b = b, a
        out = a[:]
        for i, x in enumerate(b):
            out[i] += x
        return _IntPoly(out)

    def __neg__(self):
        return _IntPoly([-x for x in self.c])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        a = self.c
        if not isinstance(other, _IntPoly):
            return _IntPoly([x * other for x in a])
        b = other.c
        if not a or not b:
            return _IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _IntPoly(out)

    def __eq__(self, other):
        if not isinstance(other, _IntPoly):
            return NotImplemented
        return self.c == other.c


def _source(rows, k, one, zero, sign):
    """Inhomogeneous term of the order-k channel relation.

    rows[i-1] holds the coefficients of z_i.  The order-1 source is the bare
    field term sign*x; higher orders carry minus the self-convolution
    sum_{i=1}^{k-1} z_i z_{k-i}.  Its (i, k-i) and (k-i, i) products are
    equal, so each unordered pair is convolved once and doubled, and the
    middle square (even k) is added once.
    """
    if k == 1:
        return [zero, one if sign > 0 else -one]
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


def _logderiv_run(P, q, one, order, sign):
    """z_1..z_order coefficient rows and a_1..a_order over the ring of P,
    carried with their powers of q (see above)."""
    zero = one - one
    rows = []
    a_vals = []
    for k in range(1, order + 1):
        src = _source(rows, k, one, zero, sign)
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


def _beta_series(a_vals, order, one):
    """Inverse-energy-scale series B(u) solving 1/B = 2 sum a_{2n} u^n B^-6n.

    ``a_vals`` holds a_1..a_{2 order}.  One incremental pass over y = 1/B,
    which obeys y = sum 2 a_{2n} u^n y^6n with y_0 = 2 a_0 = 1.  The u^k
    coefficient of the right side involves only y_0..y_{k-1}, so each order
    fixes y_k outright and then extends the power tables y^2, y^3, y^6 and
    y^6n by one coefficient each; B is the division-free reciprocal of y.
    """
    zero = one - one
    two_a = [a + a for a in a_vals[1::2]]  # two_a[n-1] = 2 a_{2n}
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
    return _ser_inverse_unit(tuple(y), order, one, zero)


def _exact_run(p: Fraction, order: int, sign: int):
    """Exact-mode engine run at p = P/q: rows and a_k as Fractions."""
    q = p.denominator
    rows, a_vals = _logderiv_run(p.numerator, q, 1, order, sign)
    rows = [
        tuple(Fraction(c, q ** (4 * k - 1 - 2 * t)) for t, c in enumerate(row))
        for k, row in enumerate(rows, 1)
    ]
    return rows, [Fraction(a, q ** (4 * k)) for k, a in enumerate(a_vals, 1)]


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


# ---------------------------------------------------------------------------
# public operations


def logderiv_step(k: int, previous, params: DimensionParams):
    """Channel log-derivative recursion at order ``k``.

    ``previous`` lists the earlier steps in order (either LogDerivSeries
    values or (LogDerivSeries, a) pairs as returned here) and is checked for
    shape only: the step is read off the engine run to order ``k``.  Returns
    ``(LogDerivSeries, a_k)`` with a_k exact; the two independent routes to
    a_k (origin regularity and weighted moments) are cross-checked there.
    """
    if not isinstance(k, int) or k < 0:
        raise OutOfRange("k must be a nonnegative integer")
    entries = [e[0] if isinstance(e, tuple) else e for e in previous]
    if len(entries) != k or any(e.order != i for i, e in enumerate(entries)):
        raise OrderMismatch(
            f"previous must hold orders 0..{k - 1} to compute order {k}"
        )
    if k == 0:
        z0 = RationalPolynomial((1 / (1 - Fraction(params.alpha)),))
        return LogDerivSeries(0, z0), Fraction(1, 2)
    rows, a_vals = _exact_run(Fraction(params.p), k, +1)
    return LogDerivSeries(k, RationalPolynomial(rows[-1])), a_vals[-1]


def separation_series(params: DimensionParams, order: int, sign: int) -> SeparationSeries:
    """Channel separation-constant coefficients a_0..a_order (or the
    mirrored channel's for sign = -1), always exact rationals."""
    if not isinstance(order, int) or order < 0:
        raise OutOfRange("order must be a nonnegative integer")
    if sign not in (1, -1):
        raise OutOfRange("sign must be +1 or -1")
    _validate_alpha(params.alpha)
    _, a_vals = _exact_run(Fraction(params.p), order, sign)
    coeffs = (Fraction(1, 2),) + tuple(a_vals)
    return SeparationSeries(sign=sign, coefficients=coeffs)


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
    _, a_vals = _logderiv_run(P, q, one, 2 * order, +1)
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

    The recursion runs over integer polynomials in the channel scale p; the
    overall -1/(2 p^2) energy scale divides out exactly (every composed
    coefficient carries at least p^2), and p = (alpha - 1)/2 is substituted
    at the end.
    """
    if not isinstance(order, int) or order < 1:
        raise OutOfRange("order must be an integer >= 1")
    if order > cap:
        raise OrderTooLarge(f"order {order} exceeds the configured cap {cap}")
    one = _IntPoly((1,))
    _, a_vals = _logderiv_run(_IntPoly((0, 1)), 1, one, 2 * order, +1)
    beta = _beta_series(a_vals, order, one)
    polys = []
    for n in range(1, order + 1):
        d = _cauchy(beta, beta, n, one - one).c
        if any(d[:2]):
            raise NumericalError(f"E_{2 * n} does not carry the factor p^2")
        polys.append(_alpha_polynomial(d[2:], -2 * 16 ** n))
    return SymbolicEnergySeries(order=order, e_polys=tuple(polys))
