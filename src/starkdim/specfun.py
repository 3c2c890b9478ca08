"""Complex special functions for the resummation layer.

Provides a complex Gamma function, rising factorials, the principal-branch
Gauss hypergeometric function 2F1 for complex parameters with the cut on
[1, inf), and the truncated analytic part of 2F1 around w = 1 that heads
the integer-difference connection formula there, with the digamma function
that formula needs (recurrence up to Re z >= 10, then DLMF 5.11.2).

The 2F1 evaluator picks among the defining series and the standard argument
transformations (w/(w-1), 1-w, 1/w) by smallest mapped modulus.  Degenerate
parameter differences (third parameter minus the upper pair an integer; the
upper parameters separated by an integer) are handled by dedicated
logarithmic connection series or, as a last resort, by a symmetric
parameter-perturbation average.

On the cut, w = 1 + v, :func:`gauss_2f1_cut` takes v itself and routes Im F
by x = 1 + v: the DLMF 15.2.3 discontinuity up to x = 11, where its series
converges fast; the generic value's own imaginary part beyond, or on failure.
"""

from __future__ import annotations

import cmath
import math

from .errors import (
    NonConvergent,
    OnBranchCut,
    OutOfRange,
    ParameterPole,
    PoleError,
    TruncationBeyondPole,
)

MAX_TERMS = 500
SERIES_RTOL = 1e-16

_RHO_MAX = 0.90           # largest mapped modulus any series region accepts
_CUT_IMAG = 1e-300        # branch-side nudge for arguments on [1, inf)
_NEAR_INT_AB = 1e-8       # a-b this close to an integer blocks the 1/w path
_NEAR_INT_MU = 1e-9       # c-a-b this close to an integer uses the log series
_EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# Gamma machinery

# Lanczos approximation, g = 607/128 with 15 coefficients: relative accuracy
# around 1e-13 on the right half-plane, reflection handles the rest.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def complex_gamma(z) -> complex:
    """Gamma function for complex argument.

    Lanczos approximation on Re z >= 1/2, reflection elsewhere; relative
    accuracy ~1e-13 for |z| <= 100 away from the poles.
    """
    z = complex(z)
    if _nonpositive_integer(z):
        raise PoleError(f"gamma pole at {z.real:g}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * acc


# B_2k / (2k), k = 1..7 (DLMF 24.2.1): the digamma series terms; at
# |z| >= 10 the k = 8 term is below 2e-17 of the value
_DIGAMMA_COEFFS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12)


def digamma(z) -> complex:
    """Digamma function for complex argument: the recurrence
    psi(z) = psi(z + 1) - 1/z up to Re z >= 10, then the asymptotic series
    ln z - 1/(2z) - sum B_2k / (2k z^2k) (DLMF 5.11.2) through k = 7."""
    z = complex(z)
    if _nonpositive_integer(z):
        raise PoleError(f"digamma pole at {z.real:g}")
    shift = 0.0
    while z.real < 10.0:
        shift += 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    series = 0.0
    for coeff in reversed(_DIGAMMA_COEFFS):
        series = (series + coeff) * inv2
    return cmath.log(z) - 0.5 / z - series - shift


def _rgamma(z) -> complex:
    """Reciprocal Gamma, zero at the poles."""
    z = complex(z)
    if _nonpositive_integer(z):
        return complex(0.0)
    return 1.0 / complex_gamma(z)


def rising_factorial(x, n: int):
    """Product x (x+1) ... (x+n-1); preserves the input's arithmetic type."""
    if not isinstance(n, int) or n < 0:
        raise OutOfRange("rising factorial length must be a nonnegative integer")
    out = x * 0 + 1
    for k in range(n):
        out = out * (x + k)
    return out


# ---------------------------------------------------------------------------
# near-unit-argument expansion


def _check_f0_order(l: float, order: int) -> None:
    if not isinstance(order, int) or order < 0:
        raise OutOfRange("order must be a nonnegative integer")
    if float(l).is_integer() and order >= l:
        raise TruncationBeyondPole(
            f"order {order} runs past the coefficient pole at k = {int(l)}"
        )


def near_unit_f0(h1, h2, l, z, order: int) -> complex:
    """Truncated analytic part around w = 1:
    sum_{k<=order} (h1)_k (h2)_k Gamma(l-k) z^k / k!.

    The companion non-analytic part starts at z^l and is therefore absent
    from every Taylor order below l.  For integer l the coefficients hit a
    Gamma pole at k = l, so the truncation must stay below it.
    """
    _check_f0_order(l, order)
    h1 = complex(h1)
    h2 = complex(h2)
    l = float(l)
    z = complex(z)
    term = complex_gamma(l)
    total = term
    for k in range(order):
        term = term * (h1 + k) * (h2 + k) * z / ((k + 1) * (l - 1 - k))
        total += term
    return total


# ---------------------------------------------------------------------------
# Gauss hypergeometric


class _Inapplicable(Exception):
    """Internal: the attempted connection formula is degenerate here."""


def _near_integer(z: complex, tol: float) -> bool:
    return abs(z - round(z.real)) <= tol


def _series_2f1(a, b, c, w) -> complex:
    """Defining series with term recurrence; requires |w| in the accepted
    region (or termination), else errors out after MAX_TERMS."""
    term = complex(1.0)
    total = complex(1.0)
    small = 0
    for k in range(MAX_TERMS):
        term = term * (a + k) * (b + k) * w / ((c + k) * (k + 1))
        total += term
        if abs(term) <= SERIES_RTOL * abs(total):
            small += 1
            if small >= 2:
                return total
        else:
            small = 0
    raise NonConvergent(f"hypergeometric series exhausted {MAX_TERMS} terms")


def _terminating_2f1(degree: int, a, b, c, w) -> complex:
    term = complex(1.0)
    total = complex(1.0)
    for k in range(degree):
        term = term * (a + k) * (b + k) * w / ((c + k) * (k + 1))
        total += term
    return total


def _pfaff(a, b, c, w) -> complex:
    return (1.0 - w) ** (-a) * _series_2f1(a, c - b, c, w / (w - 1.0))


def _inf_connection(a, b, c, w) -> complex:
    if _near_integer(b - a, _NEAR_INT_AB):
        raise _Inapplicable
    iw = 1.0 / w
    t1 = (
        complex_gamma(c)
        * complex_gamma(b - a)
        * _rgamma(b)
        * _rgamma(c - a)
        * (-w) ** (-a)
        * _series_2f1(a, a - c + 1.0, a - b + 1.0, iw)
    )
    t2 = (
        complex_gamma(c)
        * complex_gamma(a - b)
        * _rgamma(a)
        * _rgamma(c - b)
        * (-w) ** (-b)
        * _series_2f1(b, b - c + 1.0, b - a + 1.0, iw)
    )
    return t1 + t2


def _unit_log_positive(a, b, m: int, w) -> complex:
    """Connection at w -> 1 for integer c - a - b = m >= 0 (DLMF 15.8.10).

    Finite analytic head of m terms, empty at m = 0, plus a logarithmic tail
    starting at (w-1)^m.
    """
    c = a + b + m
    xi = 1.0 - w
    v = w - 1.0
    head = complex(0.0)
    if m:
        head = (
            complex_gamma(c)
            * _rgamma(a + m)
            * _rgamma(b + m)
            * near_unit_f0(a, b, float(m), v, m - 1)
        )
    log_xi = cmath.log(xi)
    psi_a = digamma(a + m)
    psi_b = digamma(b + m)
    psi_k = -_EULER_GAMMA
    psi_km = -_EULER_GAMMA + sum(1.0 / j for j in range(1, m + 1))
    coeff = complex(1.0 / math.factorial(m))
    pow_xi = complex(1.0)
    total = complex(0.0)
    small = 0
    for k in range(MAX_TERMS):
        contrib = coeff * pow_xi * (log_xi - psi_k - psi_km + psi_a + psi_b)
        total += contrib
        if abs(contrib) <= SERIES_RTOL * abs(total):
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        coeff = coeff * (a + m + k) * (b + m + k) / ((k + 1) * (k + m + 1))
        pow_xi = pow_xi * xi
        psi_a += 1.0 / (a + m + k)
        psi_b += 1.0 / (b + m + k)
        psi_k += 1.0 / (k + 1)
        psi_km += 1.0 / (k + m + 1)
    else:
        raise NonConvergent(f"logarithmic tail exhausted {MAX_TERMS} terms")
    tail = -complex_gamma(c) * _rgamma(a) * _rgamma(b) * v ** m * total
    return head + tail


def _unit_connection(a, b, c, w) -> complex:
    mu = c - a - b
    xi = 1.0 - w
    if _near_integer(mu, _NEAR_INT_MU):
        m = int(round(mu.real))
        if m < 0:
            # Euler transformation flips the sign of the integer difference
            return xi ** mu * _unit_connection(c - a, c - b, c, w)
        return _unit_log_positive(a, b, m, w)
    t1 = (
        complex_gamma(c)
        * complex_gamma(mu)
        * _rgamma(c - a)
        * _rgamma(c - b)
        * _series_2f1(a, b, 1.0 - mu, xi)
    )
    t2 = (
        complex_gamma(c)
        * complex_gamma(-mu)
        * _rgamma(a)
        * _rgamma(b)
        * xi ** mu
        * _series_2f1(c - a, c - b, 1.0 + mu, xi)
    )
    return t1 + t2


_REGIONS = (_series_2f1, _pfaff, _unit_connection, _inf_connection)

# Largest x = 1 + v at which Im F on the cut comes from the reflected series.
# That series needs about 30 x terms: ~330 at x = 11, below MAX_TERMS, while
# at x = 17 it already overruns.  From x - 1 = 10 on, the generic connection
# value's own imaginary part is within 3e-14 relative of a 60-digit
# DLMF 15.2.3 reference for the resonance family at alpha in [1.5, 20]; below
# it that error grows fast (5e-9 at x - 1 = 2, up to 1e15 at x - 1 = 0.1).
_REFLECTION_MAX_X = 11.0


def _reflection_series(a, b, c, v) -> complex:
    """2F1(c-a, c-b; mu+1; -v) for v = x - 1 > 0, mu = c - a - b, in the
    Pfaff form x^(a-c) 2F1(c-a, 1-a; mu+1; v/x): its argument stays in
    (0, 1) and the prefactor absorbs the cancellation of the raw series."""
    x = 1.0 + v
    return x ** (a - c) * _series_2f1(c - a, 1.0 - a, c - a - b + 1.0, v / x)


def real_on_axis(a, b, c) -> bool:
    """True when 2F1(a, b; c; x) is real for real x < 1: real c with the
    upper parameters real or a conjugate pair.  The two sides of the cut
    are then complex conjugates (Schwarz reflection, DLMF 15.2.3)."""
    return c.imag == 0.0 and (
        a == b.conjugate() or (a.imag == 0.0 and b.imag == 0.0)
    )


def _cut_imag_part(a, b, c, v):
    """Im 2F1(a, b; c; 1 + v + i0) from the DLMF 15.2.3 discontinuity,
    pi Gamma(c) v^mu 2F1(c-a, c-b; mu+1; -v) / (Gamma(a) Gamma(b) Gamma(mu+1)).

    Chosen from x = 1 + v before any term is summed: applies when
    :func:`real_on_axis` holds and x <= _REFLECTION_MAX_X.  None otherwise,
    or if the series raises ``NonConvergent``: the caller then keeps the
    generic value's imaginary part.
    """
    if 1.0 + v > _REFLECTION_MAX_X or not real_on_axis(a, b, c):
        return None
    mu = (c - a - b).real
    if _nonpositive_integer(complex(mu + 1.0)):
        return None
    try:
        series = _reflection_series(a, b, c, v)
    except NonConvergent:
        return None
    scale = (
        math.pi
        * v ** mu
        * complex_gamma(c)
        * _rgamma(mu + 1.0)
        / (complex_gamma(a) * complex_gamma(b))
    )
    return (scale * series).real


def gauss_2f1(a, b, c, w, cut_side=None) -> complex:
    """Principal-branch Gauss hypergeometric function 2F1(a, b; c; w).

    The branch cut runs along [1, inf).  For real w > 1 the caller must pick
    a side: ``cut_side=+1`` evaluates the limit from Im w > 0, ``-1`` from
    Im w < 0; :func:`gauss_2f1_cut` evaluates it at v = w - 1 and picks the
    route for Im F there.  Values off the cut need no side.  Accuracy
    degrades when c - a - b sits within about 1e-6 of a nonzero integer
    without being within 1e-9 of it; the evaluation regions used by the
    resummation layer never do that.
    """
    a = complex(a)
    b = complex(b)
    c = complex(c)
    w = complex(w)
    if _nonpositive_integer(c):
        raise ParameterPole(f"third parameter {c} is a non-positive integer")
    if (a.real, a.imag) > (b.real, b.imag):
        a, b = b, a
    # a polynomial case is exact for every argument, cut included
    for p in (b, a):
        if _nonpositive_integer(p):
            return _terminating_2f1(int(-p.real), a, b, c, w)
    if w == 0:
        return complex(1.0)
    if w.imag == 0.0:
        x = w.real
        if x == 1.0:
            mu = c - a - b
            if mu.real <= 0:
                raise NonConvergent("2F1 diverges at w = 1 for Re(c-a-b) <= 0")
            value = (
                complex_gamma(c)
                * complex_gamma(mu)
                * _rgamma(c - a)
                * _rgamma(c - b)
            )
            # Im F on the cut goes as (x-1)^mu and vanishes here; a product
            # of conjugate Gammas keeps only a rounding residue
            if real_on_axis(a, b, c):
                return complex(value.real, 0.0)
            return value
        if x > 1.0:
            return gauss_2f1_cut(a, b, c, x - 1.0, cut_side)
    candidates = sorted(
        (
            (abs(w), 0),
            (abs(w / (w - 1.0)), 1),
            (abs(1.0 - w), 2),
            (abs(1.0 / w), 3),
        )
    )
    blocked = False
    for rho, region in candidates:
        if rho > _RHO_MAX:
            continue
        try:
            return _REGIONS[region](a, b, c, w)
        except _Inapplicable:
            blocked = True
    if not blocked:
        raise NonConvergent(f"no series region applies at w = {w}")
    # every usable region is parameter-degenerate: symmetric nudge of the
    # upper parameters cancels the first-order perturbation error
    d1, d2 = 4e-6, 3e-6
    va = gauss_2f1(a + d1, b - d2, c, w)
    vb = gauss_2f1(a - d1, b + d2, c, w)
    return 0.5 * (va + vb)


def gauss_2f1_cut(a, b, c, v, cut_side=None) -> complex:
    """2F1(a, b; c; 1 + v) for real v, given by its offset from w = 1.

    For v > 0 (the cut) ``cut_side`` picks the side as in :func:`gauss_2f1`.
    The real part is the generic value at the rounded 1 + v.  Up to
    x = 1 + v = 11 (a real function below the cut) the imaginary part is
    the DLMF 15.2.3 discontinuity at v itself, so a tiny Im F keeps full
    relative accuracy even where 1 + v rounds to 1; beyond, or if that
    series does not converge, the generic value's imaginary part stands.
    """
    v = float(v)
    x = 1.0 + v
    a, b, c = complex(a), complex(b), complex(c)
    if not v > 0.0 or _nonpositive_integer(a) or _nonpositive_integer(b):
        return gauss_2f1(a, b, c, x)  # off the cut, or a polynomial: no cut
    if cut_side not in (1, -1):
        raise OnBranchCut("argument on the cut [1, inf): pass cut_side=+1 or -1")
    if (a.real, a.imag) > (b.real, b.imag):
        a, b = b, a
    # every connection formula builds Im F on the cut from cancelling
    # O(|F|) complex pieces; the reflection formula gives it directly
    value = gauss_2f1(a, b, c, complex(x, cut_side * _CUT_IMAG) if x > 1.0 else x)
    im = _cut_imag_part(a, b, c, v)
    if im is not None:
        value = complex(value.real, cut_side * im)
    return value
