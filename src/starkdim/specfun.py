"""Complex special functions for the resummation layer.

Provides a complex Gamma function, the principal-branch Gauss hypergeometric
function 2F1 for complex parameters with the cut on [1, inf), and the
digamma function that its integer-difference connection at w = 1 needs
(reflection for Re z < 0, DLMF 5.5.4; recurrence to Re z >= 10, then
DLMF 5.11.2).

The 2F1 evaluator picks among the defining series (in w), the w/(w-1)
series and the 1 - 1/w and 1/w connections by smallest mapped modulus.
The middle two are the defining series and the 1/w connection of the Pfaff
function G = 2F1(a, c-b; c; .) at w/(w-1) (DLMF 15.8.1), so there is one
connection formula, the 1/w one (DLMF 15.8.2), and one connection at
w = 1, with c - a - b as G's upper parameter difference.  An integer
upper parameter difference takes the connection's logarithmic form
(DLMF 15.8.8), for the 1/w region (b - a) and the 1 - 1/w region
(c - a - b, of either sign) alike.  Where no region is in reach, Taylor
steps of the hypergeometric equation from |w| = 1/2 to w are the last
resort; where a region in reach raises and no later one serves, its error
is raised.

All of this lives in :class:`Hyp2F1`, one instance per parameter set, which
keeps every parameter-only constant (Gamma products, digammas, route
checks) after the first evaluation that needs it, and with each series it
sums the per-term parameter values (a + k, b + k, (c + k)(k + 1); the log
tail's coefficients and digamma sums; the Taylor coefficients), grown to
the longest sum so far.  Each of those series sums in one loop with one
stop test: over the kept rows and, where they run out before it stops,
over new rows that its class's ``_grow`` (the one place that forms them)
forms and keeps one at a time as the loop reaches them, up to MAX_TERMS
terms.  So the kept rows are those the longest sum read, no more.
One class forms and keeps those rows of the hypergeometric term ratio for
every plain sum: the defining series and the connections' series, and the
fixed-length polynomial and logarithmic-connection head.
Each route on the cut keeps all its constants and series in one entry of
its own, which shares none with another: the 1 - 1/w connection (the 1/w
entry of the Pfaff function's instance), the 1/w connection, and the
DLMF 15.2.3 reflected series.  For a conjugate pair b = conj(a) with real
c, the 1/w connection on the real axis sums one of its two series and
conjugates it for the other.  The floating-point operations on the
argument are the same either way, so no value depends on what the
instance summed before.  :meth:`Hyp2F1.cut` is the on-cut entry point;
:meth:`Hyp2F1.cut_imag` returns its imaginary part alone, bit for bit, and
up to x = 1 + v = 1 + max(10, 2H) sums only the reflected series for it,
never the connection value whose real part a rate discards.  Both go
through one private method, the only place that tells the cut from the
rest of the real axis, checks the side and hands Re F over from the
1 - 1/w connection, whose series sum at z = v/x in (0, 1), to the 1/w
connection at v = H = max(1, min(Re(c-a-b)/6, 15)); for parameters real
on the axis it evaluates the upper side and conjugates it for the lower
one.  So one number per parameter set, H, routes both parts of F.
The reflected series, S(z) = 2F1(c-a, 1-a; mu+1; z) at z = v/x,
is the defining series up to z = 1/2 and above it a Taylor expansion of
the hypergeometric equation about the nearest anchor below z (z = 1/2,
2/3, 7/9, ...; Johansson, arXiv:1606.06977; van der Hoeven, Theor. Comput.
Sci. 210, 1999), 30-40 terms a point where the defining series needs
about 30 x; the anchors' coefficients are kept like the term values.
The anchors and the last resort's path share one Taylor start from the
defining series' S and S' and one Taylor step (:class:`_Taylor`).
:func:`gauss_2f1` builds an instance per call; the resummation layer
keeps one in each fitted model (``resum.HypModel._continuation``), and
keeps the models of its 16 fits made last, so field sweeps and refits of
one series compute those constants and term values once.  An instance
grows its kept values under its own re-entrant lock, which each public
evaluation (a call, :meth:`Hyp2F1.cut`, :meth:`Hyp2F1.cut_imag`) holds
for its point, so any holder may share one instance between threads.  A
``NumericalError`` from a series names the formula it came from; an
argument that is not finite raises ``OutOfRange``.
"""

from __future__ import annotations

import cmath
import math
from _thread import RLock
from bisect import bisect_right
from functools import cached_property, reduce
from itertools import chain, islice
from operator import add

from .errors import (
    NonConvergent,
    NumericalError,
    OnBranchCut,
    OutOfRange,
    ParameterPole,
    PoleError,
)

MAX_TERMS = 500
SERIES_RTOL = 1e-16

_RHO_MAX = 0.90           # largest mapped modulus any series region accepts
_CUT_IMAG = 1e-300        # branch-side nudge for arguments on [1, inf)
_NEAR_INT = 1e-8          # b-a this close to an integer: the log connection
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


def _finite(z, name) -> complex:
    """complex(z), or ``OutOfRange`` naming the argument where it is not
    finite."""
    if cmath.isfinite(z := complex(z)):
        return z
    raise OutOfRange(f"argument {name} must be finite, got {z}")


def complex_gamma(z) -> complex:
    """Gamma function for complex argument.

    Lanczos approximation on Re z >= 1/2, reflection elsewhere; relative
    accuracy ~1e-13 for |z| <= 100 away from the poles.  Where the Lanczos
    value is not finite, from Re z ~ 142.58, ``NumericalError`` is raised;
    next to a pole the reflection's value may be infinite.  A z that is not
    finite raises ``OutOfRange``.
    """
    z = _finite(z, "z")
    if _nonpositive_integer(z):
        raise PoleError(f"gamma pole at {z.real:g}")
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * complex_gamma(1.0 - z))
    zz = z - 1.0
    acc = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    try:
        gamma = math.sqrt(2.0 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * acc
        if cmath.isfinite(gamma):
            return gamma
    except OverflowError:
        pass
    # t^(z - 1/2) overflows before exp(-t) scales it back: the product is
    # not finite from Re z ~ 142.58, and the power raises from ~ 142.73
    raise NumericalError(f"gamma overflows a float at z = {z}")


# B_2k / (2k), k = 1..7 (DLMF 24.2.1): the digamma series terms; at
# |z| >= 10 the k = 8 term is below 2e-17 of the value
_DIGAMMA_COEFFS = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12)


def digamma(z) -> complex:
    """Digamma function for complex argument: the reflection
    psi(z) = psi(1 - z) - pi / tan(pi z) for Re z < 0 (DLMF 5.5.4), the
    recurrence psi(z) = psi(z + 1) - 1/z up to Re z >= 10, then the
    asymptotic series ln z - 1/(2z) - sum B_2k / (2k z^2k) (DLMF 5.11.2)
    through k = 7.  So at most ten recurrence steps at any z.  A z that is
    not finite raises ``OutOfRange``."""
    z = _finite(z, "z")
    if _nonpositive_integer(z):
        raise PoleError(f"digamma pole at {z.real:g}")
    if z.real < 0.0:
        # tan has period pi: the exact shift by round(Re z) keeps the
        # angle's digits (6e-10 off at z = -1e7 + 0.37 without it)
        return digamma(1.0 - z) - math.pi / cmath.tan(
            math.pi * (z - round(z.real)))
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
    """Reciprocal Gamma, zero at the poles; sin(pi z) Gamma(1-z) / pi where
    Gamma(z) itself is not finite (z next to a pole, e.g. subnormal); z is
    a complex or a float."""
    if _nonpositive_integer(z):
        return complex(0.0)
    gamma = complex_gamma(z)
    if cmath.isfinite(gamma):
        return 1.0 / gamma
    return cmath.sin(math.pi * z) * complex_gamma(1.0 - z) / math.pi


# ---------------------------------------------------------------------------
# Gauss hypergeometric


def _near_integer(z: complex, tol: float) -> bool:
    return abs(z - round(z.real)) <= tol


class _Series:
    """The defining series of 2F1(a, b; c; .), each term from the last by
    its ratio, term * (a + k) * (b + k) * w / ((c + k) (k + 1)).

    The parameter-only values of that ratio are kept, one row per k, in a
    list that grows to the longest sum so far.  A sum runs over the kept
    rows (at most MAX_TERMS of them) and, where they run out before it
    stops, over the rows :meth:`_grow` forms and keeps as the sum reaches
    them, up to MAX_TERMS terms.  The operations on w are the same
    whatever was summed before, so a value never depends on call order.
    A sum needs |w| in the accepted region, else it errors out after
    MAX_TERMS.  :meth:`terms` gives a fixed number of terms from the same
    rows: the polynomial case, the logarithmic connection's finite head,
    and the resummation model's Taylor terms, so this class is the one
    place that forms the ratio.
    """

    __slots__ = ("a", "b", "c", "rows", "settle")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c
        self.rows = []
        # for Re c < 0 the terms can fall and then grow again up to
        # k ~ -Re c, where c + k is least: a sum adds the terms before that
        # without the stop test, if there are fewer than MAX_TERMS
        self.settle = max(0, int(-c.real) + 1)

    def _grow(self, length):
        """Forms, keeps and yields the rows up to ``length``, one at a time."""
        rows, a, b, c = self.rows, self.a, self.b, self.c
        for k in range(len(rows), length):
            row = a + k, b + k, (c + k) * (k + 1)
            rows.append(row)
            yield row

    def __call__(self, w) -> complex:
        rows = self.rows
        term = total = complex(1.0)
        small = 0
        settle = self.settle
        if 0 < settle < MAX_TERMS:
            for term in self.terms(w, settle + 1, term)[1:]:
                total += term
            kept = islice(rows, settle, MAX_TERMS)
        else:
            kept = rows if len(rows) <= MAX_TERMS else rows[:MAX_TERMS]
        while True:
            for ak, bk, dk in kept:
                term = term * ak * bk * w / dk
                total += term
                if abs(term) <= SERIES_RTOL * abs(total):
                    small += 1
                    if small >= 2:
                        return total
                else:
                    small = 0
            if len(rows) >= MAX_TERMS:
                raise NonConvergent(
                    f"hypergeometric series exhausted {MAX_TERMS} terms")
            kept = self._grow(MAX_TERMS)

    def terms(self, w, count, first) -> list:
        """The first ``count`` terms at w times ``first``, each from the last
        by the ratio of its kept row.  The rows grow to count - 1 and are
        kept; MAX_TERMS does not bound them, as a finite sum (a terminating
        series, or the terms below a pole of the ratio) sets its own
        length.  A finite term whose predecessor times (a+k)(b+k)w passes
        the float range is formed, with every later one, from its
        predecessor times the whole ratio; a term that is finite the first
        way keeps its bits."""
        terms = [first]
        for ak, bk, dk in chain(islice(self.rows, max(count - 1, 0)),
                                self._grow(count - 1)):
            terms.append(terms[-1] * ak * bk * w / dk)
        # a non-finite term makes every later one non-finite: the last shows
        if not cmath.isfinite(terms[-1]):
            for k in range(1, len(terms)):
                if not cmath.isfinite(terms[k]):
                    ak, bk, dk = self.rows[k - 1]
                    terms[k] = terms[k - 1] * (ak * bk * w / dk)
        return terms[:count]


class _LogTail:
    """The logarithmic tail of the 1/w connection for an integer
    b - a = m >= 0 (DLMF 15.8.8): the sum over k of
    (t_k (log(-w) + psi(1+m+k) + psi(1+k) - psi(a+m+k)) - u_k) w^-k, with
    t_k = (-1)^k (a+m)_k / (k! (k+m)! Gamma(s-k)), u_k = t_k psi(s-k) and
    s = c - a - m.

    Everything but the powers of 1/w and log(-w) depends on the parameters
    alone.  The rows (t_k, t_k p_k - u_k), p_k = psi(1+m+k) + psi(1+k) -
    psi(a+m+k), are kept and grow to the longest sum so far; a sum runs
    over the kept rows and then over new ones as :meth:`_grow` forms them,
    as :class:`_Series` does.  :meth:`_grow` advances (t_k, u_k, p_k) from
    the last row's: t_k as one running product, since (a+m)_k / (k! (k+m)!)
    alone, from 1/m!, underflows long before the sum converges, as
    1/Gamma(s-k) grows like k!; u_k by u_(k+1) = r_k ((k+1-s) u_k + t_k),
    r_k = (a+m+k)/((k+1)(k+m+1)), which holds where s - k passes a pole
    too; p_k by the digamma recurrence.
    """

    __slots__ = ("am", "s", "m", "rows", "last")

    def __init__(self, a, m, s, psi_am, psi_s):
        self.am, self.s, self.m = a + m, s, m
        # H_m left to right: from Python 3.12 sum() rounds H_30 differently
        harmonic = 0.0
        for j in range(1, m + 1):
            harmonic += 1.0 / j
        t = _rgamma(s) / math.factorial(m)
        u, p = t * psi_s, harmonic - 2.0 * _EULER_GAMMA - psi_am
        self.last = t, u, p
        self.rows = [(t, t * p - u)]

    def _grow(self, length):
        """Forms, keeps and yields the rows up to ``length``, one at a time,
        each from the last one's (t, u, p), kept in ``last``, whose index k
        is one below its own."""
        rows = self.rows
        am, s, m = self.am, self.s, self.m
        t, u, p = self.last
        for k in range(len(rows) - 1, length - 1):
            ak = am + k
            r = ak / ((k + 1) * (k + m + 1))
            t, u, p = self.last = (
                t * r * (k + 1 - s), r * ((k + 1 - s) * u + t),
                p + 1.0 / (k + 1) + 1.0 / (k + m + 1) - 1.0 / ak)
            row = t, t * p - u
            rows.append(row)
            yield row

    def __call__(self, iw, log_w) -> complex:
        rows = self.rows
        pow_w = complex(1.0)
        total = complex(0.0)
        small = 0
        kept = rows if len(rows) <= MAX_TERMS else rows[:MAX_TERMS]
        while True:
            for t, rest in kept:
                contrib = pow_w * (t * log_w + rest)
                total += contrib
                if abs(contrib) <= SERIES_RTOL * abs(total):
                    small += 1
                    if small >= 2:
                        return total
                else:
                    small = 0
                pow_w = pow_w * iw
            if len(rows) >= MAX_TERMS:
                raise NonConvergent(
                    f"logarithmic tail exhausted {MAX_TERMS} terms")
            kept = self._grow(MAX_TERMS)


class _Taylor:
    """Taylor coefficients s_n of a solution S of the hypergeometric
    equation z (1-z) S'' + (c - (a+b+1) z) S' - a b S = 0 about z0, from
    s_0 = S(z0) and s_1 = S'(z0) by its three-term recurrence

        s_(n+2) = ((n+a)(n+b) s_n - (q n + r)(n+1) s_(n+1)) / (p (n+1)(n+2)),

    p = z0 (1-z0), q = 1 - 2 z0, r = c - (a+b+1) z0.  The coefficients are
    kept scaled by the step length rho, as s_n rho^n (far from z = 0 s_n
    underflows and h^n overflows), formed in :meth:`_grow`, and grow to the
    longest sum so far; each sum, of S or S' at z0 + h, runs over the kept
    coefficients and then over new ones as :meth:`_grow` forms them, and
    stops, as :class:`_Series` does.  The radius of convergence is
    min(|z0|, |1 - z0|).  A path of expansions begins with :meth:`start`
    and goes on by :meth:`step`.
    """

    __slots__ = ("coeffs", "a", "b", "c", "p", "q", "r", "rho")

    def __init__(self, a, b, c, z0, s0, s1, rho):
        self.coeffs = [s0, s1 * rho]
        self.a, self.b, self.c, self.rho = a, b, c, rho
        # the recurrence of s_n rho^n: p / rho^2, q / rho and r / rho
        self.p, self.q = z0 * (1.0 - z0) / (rho * rho), (1.0 - 2.0 * z0) / rho
        self.r = (c - (a + b + 1.0) * z0) / rho

    def _grow(self, length):
        """Forms, keeps and yields the coefficients up to ``length``, one at
        a time, each as (n, s_n rho^n)."""
        s = self.coeffs
        a, b, p, q, r = self.a, self.b, self.p, self.q, self.r
        for m in range(len(s) - 2, length - 2):
            sn = (((m + a) * (m + b) * s[m] - (q * m + r) * (m + 1) * s[m + 1])
                  / (p * (m + 1) * (m + 2)))
            s.append(sn)
            yield m + 2, sn

    def __call__(self, h, derivative=0) -> complex:
        """S(z0 + h), or S'(z0 + h) for ``derivative`` = 1."""
        s = self.coeffs
        total = s[derivative]
        u = h / self.rho
        pow_u = 1.0
        small = 0
        # terms n = first .. last - 1
        first, last = 1 + derivative, MAX_TERMS + derivative
        kept = enumerate(islice(s, first, last), first)
        while True:
            for n, sn in kept:
                pow_u *= u
                term = sn * pow_u * n if derivative else sn * pow_u
                total += term
                if abs(term) <= SERIES_RTOL * abs(total):
                    small += 1
                    if small >= 2:
                        return total / self.rho if derivative else total
                else:
                    small = 0
            if len(s) >= last:
                raise NonConvergent(
                    f"Taylor expansion exhausted {MAX_TERMS} terms")
            kept = self._grow(last)

    @classmethod
    def start(cls, series, z0, rho):
        """The expansion about z0 from the defining series ``series`` of
        2F1(a, b; c; .): S = series(z0), S' = (ab/c) 2F1(a+1, b+1; c+1; z0)."""
        a, b, c = series.a, series.b, series.c
        s1 = a * b / c * _Series(a + 1.0, b + 1.0, c + 1.0)(z0)
        return cls(a, b, c, z0, series(z0), s1, rho)

    def step(self, h, z, rho):
        """The expansion about z = z0 + h, from this one's S and S' at h."""
        return _Taylor(self.a, self.b, self.c, z, self(h), self(h, 1), rho)


# The reflected series' anchors z_j = 1 - (1/2)(2/3)^j = 1/2, 2/3, 7/9,
# 0.852, 0.901, ...: every one below 1.0, as from j = 91 on z_j rounds to 1.0
_ANCHORS = tuple(1.0 - 0.5 * (2.0 / 3.0) ** j for j in range(91))


class _AnchoredSeries:
    """2F1(a, b; c; z) for real 0 <= z < 1: the defining series
    (:class:`_Series`) up to z = 1/2, and above it a :class:`_Taylor`
    expansion about the largest anchor z_j <= z, summed forward only.

    The defining series needs ever more terms towards z = 1 (about 30 x at
    z = v/x).  The step h = z - z_j is at most a third of the expansion's
    radius 1 - z_j, so 30-40 terms suffice at every z.  Forward only: the
    recurrence's rounding brings in the other solution z^(1-c), which
    shrinks forward and grows towards z = 0.  Stepping back from z = 1/2
    by up to a third of the radius, at alpha = 3, put S off by 1e-12 at
    l = 30, 2e-8 at l = 60 and 3e-2 at l = 90; forward, by 2e-15 at most.
    The first anchor's expansion is :meth:`_Taylor.start`, each later one
    the previous one's :meth:`_Taylor.step`.  Anchors are built when first
    needed and kept; each value depends on z alone.  The anchors end at the
    last one below 1.0, and z >= 1.0 raises ``NonConvergent``.
    """

    __slots__ = ("series", "anchors")

    def __init__(self, a, b, c):
        self.series = _Series(a, b, c)
        self.anchors = []

    def __call__(self, z) -> complex:
        if z <= _ANCHORS[0]:
            return self.series(z)
        if z >= 1.0:
            raise NonConvergent(f"no Taylor anchor below z = {z!r}")
        j = bisect_right(_ANCHORS, z) - 1
        anchors = self.anchors
        while len(anchors) <= j:
            k = len(anchors)
            anchors.append(anchors[-1].step(_ANCHORS[k] - _ANCHORS[k - 1],
                                            _ANCHORS[k], 1.0) if k else
                           _Taylor.start(self.series, _ANCHORS[0], 1.0))
        return anchors[j](z - _ANCHORS[j])


def real_on_axis(a, b, c) -> bool:
    """True when 2F1(a, b; c; x) is real for real x < 1: real c with the
    upper parameters real or a conjugate pair.  The two sides of the cut
    are then complex conjugates (Schwarz reflection, DLMF 15.2.3)."""
    return c.imag == 0.0 and (
        a == b.conjugate() or (a.imag == 0.0 and b.imag == 0.0)
    )


class Hyp2F1:
    """Principal-branch 2F1(a, b; c; .) at fixed parameters.

    Calling an instance evaluates it at w (see :func:`gauss_2f1`);
    :meth:`cut` evaluates it at w = 1 + v.
    Region choice is by smallest mapped modulus among the defining series
    (|w|), the w/(w-1) series (|w/(w-1)|), the 1 - 1/w connection
    (|1 - 1/w|) and the 1/w connection (|1/w|).  The middle two are the
    defining series and the 1/w connection of the Pfaff function
    G = 2F1(a, c-b; c; .), F(w) = (1-w)^(-a) G(w/(w-1)), kept as one
    instance (``_pfaff``): G's upper parameters differ by c - a - b, so its
    1/w connection is the one connection at w = 1, for every c - a - b.  On
    the cut w = 1 + v its series sum at z = v/(1+v), in (0, 1) for every
    v > 0.  There :meth:`cut` and :meth:`cut_imag` take Re F from the
    1 - 1/w connection up to v = H = max(1, min(Re(c-a-b)/6, 15)) and from
    the 1/w connection past it (a call at the cut's nudge itself orders
    the two by modulus, so hands over at v = 1), and Im F from the
    DLMF 15.2.3 reflected series up to x = 1 + max(10, 2H) (see
    :meth:`_on_cut`).  Off the cut a region is tried only where its
    mapped modulus is at most _RHO_MAX; where none is, the last resort
    serves (:meth:`_stepped`), and where one raised and no later one
    served, its error stands.

    What depends on (a, b, c) alone -- the Gamma products of the 1/w
    connection, the digammas, harmonic sum and head coefficients of its
    logarithmic form, the Gamma factors of the DLMF 15.2.3 discontinuity,
    and the checks that pick among these -- is computed on the first
    evaluation that needs it and kept.  So are the per-term parameter
    values of every series the instance sums (the defining series, which
    also gives a polynomial's terms, the 1/w connection's pair of series or
    its log tail, the reflected series; see :class:`_Series` and
    :class:`_LogTail`) and the reflected series' anchors with their Taylor
    coefficients (:class:`_AnchoredSeries`), as lists that grow to the
    longest sum so far and go with the instance.  Each connection is one
    kept entry that holds all it reads; with Gauss's sum, the defining
    series and the Pfaff function these are five cached names.
    ``_inf_route`` is led by the integer m that b - a rounds to, None away
    from an integer: then its two Gamma prefixes and two series, the
    conjugate-pair test and the powers -a, -b; at an integer (a and b are
    ordered by real part, so m >= 0), the finite head's coefficients, the
    log tail's prefix and tail, and the power -a (DLMF 15.8.8).
    ``_reflection`` holds (a - c, mu, Gamma(c), 1/Gamma(mu+1), Gamma(a)
    Gamma(b), anchored series), or None where the discontinuity formula
    does not apply.  Whether an upper parameter makes the function a
    polynomial, the cut's hand-over and whether its sides are conjugates
    are decided once, when the instance is made.  A kept product is always
    the left-most part of the product the formula multiplies out, and an
    anchor is built from the same sums whenever it is built, so every value
    is bit-identical to computing it afresh.

    For b = conj(a) and real c the second 1/w series has the conjugate
    parameters of the first, so on the real axis (the cut's i0 nudge
    included) it is the first one's conjugate and is not summed; real
    pairs and complex w off the axis sum both.

    Every kept value, the Pfaff instance's included (it is reached only
    through this one's private methods), grows under this instance's
    re-entrant lock, which a call and :meth:`_on_cut` (so :meth:`cut` and
    :meth:`cut_imag`) hold for one point: threads may share an instance,
    and evaluate it one point at a time.  Re-entrant, as a call hands a
    real w > 1 to :meth:`cut`, and :meth:`_on_cut` a v off the cut back.
    a, b and c must be finite, else ``OutOfRange``, and so must w.
    """

    def __init__(self, a, b, c):
        a, b, c = map(_finite, (a, b, c), "abc")
        if _nonpositive_integer(c):
            raise ParameterPole(f"third parameter {c} is a non-positive integer")
        if (a.real, a.imag) > (b.real, b.imag):
            a, b = b, a
        self.a, self.b, self.c = a, b, c
        # length of the terminating series when an upper parameter is a
        # non-positive integer (a polynomial has no cut), else None
        self._degree = next((int(-p.real) for p in (b, a)
                             if _nonpositive_integer(p)), None)
        # what :meth:`_on_cut` reads at every point: where Re F hands over
        # from the 1 - 1/w to the 1/w connection, H, the reflected series'
        # reach x = max(11, 1 + 2H) that H sets, and whether the sides of
        # the cut are conjugates
        self._hand_over = max(1.0, min((c - a - b).real / 6.0, 15.0))
        self._reach = max(11.0, 1.0 + 2.0 * self._hand_over)
        self._real_on_axis = real_on_axis(a, b, c)
        self._lock = RLock()

    # -- parameter-only constants ------------------------------------------

    @cached_property
    def _at_one(self):
        """Gauss's sum 2F1(a, b; c; 1); ``NonConvergent`` where it diverges
        (not kept: raised again on every call)."""
        a, b, c = self.a, self.b, self.c
        mu = c - a - b
        if mu.real <= 0:
            raise NonConvergent("2F1 diverges at w = 1 for Re(c-a-b) <= 0")
        value = complex_gamma(c) * complex_gamma(mu) * _rgamma(c - a) * _rgamma(c - b)
        # Im F on the cut goes as (x-1)^mu and vanishes here; a product
        # of conjugate Gammas keeps only a rounding residue
        if real_on_axis(a, b, c):
            return complex(value.real, 0.0)
        return value

    @cached_property
    def _inf_route(self):
        """The 1/w connection's one kept entry, led by m: b - a rounded to
        an integer when within _NEAR_INT of it, else None.  Away from an
        integer (DLMF 15.8.2), (None, k1, k2, series_a, series_b,
        conjugate, -a, -b): its two Gamma prefixes and two series, whether
        b = conj(a) with real c, and the powers of -w.  At an integer m >= 0
        (a and b are ordered by real part; DLMF 15.8.8), (m, head, tail
        prefix, tail, -a): head holds the finite head's m coefficients of
        powers of 1/w, the highest first, none at m = 0: the first m terms
        at 1, from Gamma(m) times its Gamma prefix, of the
        :class:`_Series` of 2F1(a, a-c+1; 1-m; .); tail is a
        :class:`_LogTail`.  The integer case is None where a digamma of the
        tail is a pole or overflows, with a + m or c - b next to 0 or a
        negative integer."""
        a, b, c = self.a, self.b, self.c
        gamma_c = complex_gamma(c)
        if not _near_integer(b - a, _NEAR_INT):
            return (
                None,
                gamma_c * complex_gamma(b - a) * _rgamma(b) * _rgamma(c - a),
                gamma_c * complex_gamma(a - b) * _rgamma(a) * _rgamma(c - b),
                _Series(a, a - c + 1.0, a - b + 1.0),
                _Series(b, b - c + 1.0, b - a + 1.0),
                b == a.conjugate() and c.imag == 0.0, -a, -b,
            )
        m = int(round((b - a).real))
        s = c - a - m
        try:
            psi_am, psi_s = digamma(a + m), digamma(s)
        except PoleError:
            return None
        if not (cmath.isfinite(psi_am) and cmath.isfinite(psi_s)):
            return None
        head = tuple(_Series(a, a - c + 1.0, 1.0 - m).terms(1.0, m, (
            gamma_c * _rgamma(a + m) * _rgamma(c - a)
            * complex_gamma(float(m))))[::-1]) if m else ()
        return (m, head, gamma_c * _rgamma(a),
                _LogTail(a, m, s, psi_am, psi_s), -a)

    @cached_property
    def _reflection(self):
        """(a - c, mu, Gamma(c), 1/Gamma(mu+1), Gamma(a) Gamma(b), S) of the
        DLMF 15.2.3 discontinuity, S the :class:`_AnchoredSeries` of
        2F1(c-a, 1-a; mu+1; .); None unless :func:`real_on_axis` holds and
        mu + 1 is neither a pole nor within _NEAR_INT of one."""
        a, b, c = self.a, self.b, self.c
        if not real_on_axis(a, b, c):
            return None
        mu = c - a - b
        if mu.real < -0.5 and _near_integer(mu, _NEAR_INT):
            return None  # mu + 1 at or next to a pole
        return (a - c, mu.real, complex_gamma(c), _rgamma(mu.real + 1.0),
                complex_gamma(a) * complex_gamma(b),
                _AnchoredSeries(c - a, 1.0 - a, mu + 1.0))

    # -- series, each keeping its parameter-only term values ---------------

    @cached_property
    def _direct_series(self):
        return _Series(self.a, self.b, self.c)

    @cached_property
    def _pfaff(self):
        """The Pfaff function G = 2F1(a, c-b; c; .), with
        F(w) = (1-w)^(-a) G(w/(w-1)) (DLMF 15.8.1)."""
        return Hyp2F1(self.a, self.c - self.b, self.c)

    # -- regions ------------------------------------------------------------

    def _pfaff_direct(self, w) -> complex:
        return (1.0 - w) ** (-self.a) * self._pfaff._direct_series(w / (w - 1.0))

    def _pfaff_inf(self, w):
        """The 1/w connection of the Pfaff function at w/(w-1), whose series
        sum at 1 - 1/w; None where it does not apply."""
        value = self._pfaff._inf(w / (w - 1.0))
        return value if value is None else (1.0 - w) ** (-self.a) * value

    def _inf(self, w):
        """The 1/w connection at w from :attr:`_inf_route`; None where it
        does not apply.  For an integer b - a = m, the finite head of m
        terms, empty at m = 0, plus the log tail starting at w^-m."""
        route = self._inf_route
        if route is None:
            return None
        iw = 1.0 / w
        minus_w = -w
        if route[0] is None:
            _, k1, k2, series_a, series_b, conjugate, power_a, power_b = route
            f_a = series_a(iw)
            # b = conj(a), real c: the second series has the conjugate
            # parameters, so at a real argument, or the cut's nudge of one,
            # it is the conjugate sum
            f_b = (f_a.conjugate() if conjugate and abs(w.imag) <= _CUT_IMAG
                   else series_b(iw))
            return k1 * minus_w ** power_a * f_a + k2 * minus_w ** power_b * f_b
        m, coeffs, tail_pref, tail, power = route
        head = complex(0.0)
        for coeff in coeffs:  # Horner
            head = head * iw + coeff
        return minus_w ** power * (
            head + tail_pref * iw ** m * tail(iw, cmath.log(minus_w)))

    # (method, formula named in error messages; for a connection, the
    # argument of its series), indexed by region
    _REGIONS = (("_direct_series", "defining series"),
                ("_pfaff_direct", "w/(w-1) series"),
                ("_pfaff_inf", "1-1/w"), ("_inf", "1/w"))

    # -- evaluation ---------------------------------------------------------

    def __call__(self, w, cut_side=None) -> complex:
        w = _finite(w, "w")
        with self._lock:
            if self._degree is not None:
                # a polynomial has no cut: its terms at w itself, added
                # left to right (sum() of floats compensates from Python
                # 3.12), which cancel near w = 1 (see :func:`gauss_2f1`)
                return reduce(add, self._direct_series.terms(
                    w, self._degree + 1, complex(1.0)), complex(0.0))
            if w == 0:
                return complex(1.0)
            if w.imag == 0.0:
                x = w.real
                if x == 1.0:
                    return self._at_one
                if x > 1.0:
                    return self.cut(x - 1.0, cut_side)
            iw = 1.0 / w
            return self._first_region(w, [region for rho, region in sorted((
                (abs(w), 0), (abs(w / (w - 1.0)), 1),
                (abs(1.0 - iw), 2), (abs(iw), 3))) if rho <= _RHO_MAX])

    def _first_region(self, w, regions) -> complex:
        """2F1 at w from the first of ``regions`` that applies (a region
        that does not returns None) and whose series sum; from
        :meth:`_stepped` only where none of them applies.  Where one raised
        and no later one served, its error is raised, naming the region's
        formula, and for a connection's log entry its m."""
        failed = None
        for region in regions:
            try:
                value = getattr(self, self._REGIONS[region][0])(w)
            except NumericalError as exc:
                failed = failed or (exc, region)
                continue
            if value is not None:
                return value
        if failed is None:
            return self._stepped(w)
        exc, region = failed
        route = self._REGIONS[region][1]
        if region >= 2:
            # the connection's entry, absent where building it raised
            entry = vars(self._pfaff if region == 2 else self).get("_inf_route")
            m = entry and entry[0]
            route = (f"{route} connection" if m is None
                     else f"log connection (m={m}) at {route}")
        raise type(exc)(f"{exc} in the {route}") from exc

    def _stepped(self, w) -> complex:
        """2F1 at w by :meth:`_Taylor.step` (Johansson, arXiv:1606.06977)
        from the defining series at |z| = 1/2 to 1/2 + i/2, or 1/2 - i/2 for
        Im w < 0 so that the path keeps w's side of the cut, then on to w;
        each step is at most a third of min(|z|, |1 - z|)."""
        side = 1.0 if w.imag >= 0.0 else -1.0
        z = cmath.rect(0.5, side * math.pi / 4.0)
        expansion = None
        for target in (complex(0.5, 0.5 * side), w):
            while z != target:
                rho = min(abs(z), abs(1.0 - z)) / 3.0
                expansion = (_Taylor.start(self._direct_series, z, rho)
                             if expansion is None else expansion.step(h, z, rho))
                h = target - z
                far = abs(h) > rho
                if far:
                    h *= rho / abs(h)
                z = z + h if far else target
        # the last expansion summed at w: none is built there
        return expansion(h)

    def cut(self, v, cut_side=None) -> complex:
        """2F1(a, b; c; 1 + v) for real v; on the cut, v > 0, ``cut_side``
        picks the side as in :func:`gauss_2f1`.  Re F is the value of the
        1 - 1/w connection up to v = H = max(1, min(Re(c-a-b)/6, 15)) and
        of the 1/w connection past it, at the rounded 1 + v.  Up to
        x = 1 + v = 1 + max(10, 2H) (for a function real below the cut) Im F
        is the DLMF 15.2.3 discontinuity at v itself, so a tiny Im F keeps
        full relative accuracy even where 1 + v rounds to 1: the defining
        series up to x = 2, anchored Taylor steps of the hypergeometric
        equation above (see :meth:`_cut_imag_part`).  Beyond that reach, or
        if that route does not converge, the generic value's imaginary part
        stands.  :meth:`cut_imag` gives Im F alone.  A v that is not finite
        raises ``OutOfRange``, as w = 1 + v does in a call."""
        return self._on_cut(v, cut_side, True)

    def cut_imag(self, v, cut_side=None) -> float:
        """The imaginary part of :meth:`cut`, bit for bit.  Where the
        DLMF 15.2.3 discontinuity gives it (x = 1 + v <= 1 + max(10, 2H) on
        the cut of a function real below it, H the Re F hand-over), only
        that series is summed; elsewhere it is the imaginary part of the
        generic value, and the series is not summed a second time."""
        return self._on_cut(v, cut_side, False).imag

    def _on_cut(self, v, cut_side, need_real) -> complex:
        """:meth:`cut` at v, the one place that tells the cut from the rest
        of the axis, checks ``cut_side`` and nudges 1 + v to that side by
        _CUT_IMAG.  Its Re F is the value at the nudge of one of the two
        connections, where |w| and |w/(w-1)| exceed 1 > _RHO_MAX: the
        1 - 1/w connection up to the hand-over v = H =
        max(1, min(Re(c-a-b)/6, 15)), the 1/w connection past it, each with
        the other as the next region if it does not apply or its series
        does not sum.  The 1 is where |1 - 1/w| and |1/w| tie, and so where
        a call at the nudge itself hands over; up to the l/6 the 1 - 1/w
        connection keeps digits that the 1/w one loses at large l, and past
        it the 1/w connection keeps those that the 1 - 1/w one loses at
        small l and large |a|, |b|.  The 15 is where l = 90 hands over:
        past it, at l >= 95, the 1 - 1/w connection's log tail runs out of
        MAX_TERMS short of l/6.  Im F comes from :meth:`_cut_imag_part` up
        to x = 1 + max(10, 2H): x = 11 at every l <= 30, and up to x = 31
        at large l.  Below their reach the connections' imaginary parts
        lose digits as they build a small Im F from O(|F|) pieces: at
        l = 30 and alpha = 1.5 to 20, up to 7e-8 at x = 2 and 6e-12 at
        x = 3, and just past x = 11 up to 2.3e-11 at l = 95.
        The floor at x = 11 serves small l: with a reach of 1 + 2H alone,
        real pairs with b - a near an integer lost up to 1.5e-10 on
        v in (2H, 10].
        For parameters real on the axis the lower side is the upper one's
        conjugate, so the sides mirror each other bit for bit.  Without
        ``need_real`` the generic value is not formed where
        :meth:`_cut_imag_part` gives Im F, and the value returned has
        Re F = 0 there.  A v off the cut or not finite goes to the
        instance's call, which checks it (``OutOfRange`` for one that is
        not finite); a point on the cut is evaluated under the instance's
        lock.  Its Im F reach, max(11, 1 + 2H), is formed once per
        instance, so a point compares x with it once."""
        v = float(v)
        x = 1.0 + v
        if not 0.0 < v < math.inf or self._degree is not None:
            return self(x)  # off the cut, not finite, or a polynomial
        if cut_side not in (1, -1):
            raise OnBranchCut("argument on the cut [1, inf): pass cut_side=+1 or -1")
        with self._lock:
            # every connection formula builds Im F on the cut from
            # cancelling O(|F|) complex pieces; the reflection formula
            # gives it directly
            im = self._cut_imag_part(v) if x <= self._reach else None
            if im is not None and not need_real:
                return complex(0.0, cut_side * im)
            if x > 1.0:
                # parameters real on the axis: one side evaluated, the
                # other its conjugate, so that the two sides mirror each
                # other bit for bit
                mirror = cut_side < 0 and self._real_on_axis
                w = complex(x, _CUT_IMAG if mirror else cut_side * _CUT_IMAG)
                value = self._first_region(
                    w, (2, 3) if v <= self._hand_over else (3, 2))
                if mirror:
                    value = value.conjugate()
            else:
                value = self(x)  # 1 + v rounds to 1: Gauss's sum
            return value if im is None else complex(value.real, cut_side * im)

    def _cut_imag_part(self, v):
        """Im 2F1(a, b; c; 1 + v + i0) from the DLMF 15.2.3 discontinuity,
        pi Gamma(c) v^mu 2F1(c-a, c-b; mu+1; -v) / (Gamma(a) Gamma(b) Gamma(mu+1)).

        The 2F1 there is taken in the Pfaff form x^(a-c) S(v/x), x = 1 + v,
        S = 2F1(c-a, 1-a; mu+1; .): S's argument stays in (0, 1) and the
        prefactor absorbs the cancellation of the raw series.  S is kept in
        :attr:`_reflection` as an :class:`_AnchoredSeries`: the defining
        series for x <= 2, else a Taylor expansion about the largest anchor
        at or below v/x, 30-40 terms.  Against a 40-digit reference, Im F is
        as accurate as summing S's defining series directly (worst 1.2e-13
        over alpha in [1.1, 20], l up to 90, set by the Gamma factors).

        :meth:`_on_cut` takes it up to x = 1 + max(10, 2H), H the Re F
        hand-over, before any other term is summed; that is at most x = 31,
        where v ** mu stays finite for mu up to 208.  None where
        :func:`real_on_axis` fails, or if the series raises
        ``NonConvergent``: the caller then keeps the generic value's
        imaginary part.  Where building its Gamma factors raises (Gamma(c)
        overflows a float from Re c = 142.58), the ``NumericalError`` names
        this formula and a, b, c.
        """
        try:
            reflection = self._reflection
        except NumericalError as exc:
            raise type(exc)(
                f"{exc} in the DLMF 15.2.3 discontinuity (reflected series)"
                f" at a={self.a}, b={self.b}, c={self.c}") from exc
        if reflection is None:
            return None
        x = 1.0 + v
        a_c, mu, gamma_c, rgamma_mu1, gamma_ab, series = reflection
        try:
            value = x ** a_c * series(v / x)
        except NonConvergent:
            return None
        scale = math.pi * v ** mu * gamma_c * rgamma_mu1 / gamma_ab
        return (scale * value).real


def gauss_2f1(a, b, c, w, cut_side=None) -> complex:
    """Principal-branch Gauss hypergeometric function 2F1(a, b; c; w).

    The branch cut runs along [1, inf).  For real w > 1 the caller must pick
    a side: ``cut_side=+1`` evaluates the limit from Im w > 0, ``-1`` from
    Im w < 0; :meth:`Hyp2F1.cut` evaluates it at v = w - 1 and picks the
    route for Im F there.  Values off the cut need no side.  Accuracy
    degrades where a connection's upper parameter difference -- b - a at
    1/w, c - a - b at 1 - 1/w -- sits near an integer: within 1e-8 of it
    the logarithmic form is summed at the integer, off by about the
    distance, and just past 1e-8 the plain form's two terms cancel.  The
    resummation layer meets that band at l just off an integer, worst at
    the hand-over v = l/6: Delta's worst relative error is 2.1e-12 at
    alpha = 3 and 5.8e-12 at alpha = 20 for l = 30 + 1e-9, 3.0e-4 and
    3.5e-2 for l = 30 + 1e-8, 2.8e-6 and 1.2e-5 for l = 30 + 1e-7, and
    1.0e-14 and 1.3e-12 for l = 30 + 1e-3; ``sweep --alpha 20 --l
    30.000000002`` is within 1.2e-11 of a 60-digit reference.  A negative
    integer c - a - b takes the same connection as a positive one: within
    1e-13 of 80-digit mpmath at (0.6, 0.8; -4.6), w = 1.45 + i0, and at
    m = -30 near w = 1 + 0.45 e^(3.1i).  Where no region is in reach
    (near w = e^(+-i pi/3)), the value comes from Taylor steps of the
    hypergeometric equation, within 5.1e-15 of 40-digit mpmath at the
    tested points.  Where a region in reach raises (its series runs out of
    terms, or its Gamma products overflow) and no later one serves, its
    ``NumericalError`` is raised, naming the region's formula: at c = 150
    the Taylor steps were far off (5.2e24 - 7.5e24i at w = 2 + i, where
    the value is 1.0047 + 0.0024i).
    A polynomial, an upper parameter -n a non-positive integer, is summed
    as its n + 1 terms at w itself, whose cancellation near w = 1 costs
    digits with no error raised: against 40-digit mpmath, 2F1(-40, 2.5;
    1.7; w) is 4.0e5 relative off at w = 1.5 and 7.9 at w = 1 + 0.3i, and
    4.2e-9 at w = 0.3; 1.0e-3 at (a, b; c) = (-40, 0.3+0.4i; 2.2-0.5i),
    w = 1.5, and 1.4e-6 at (-17, 2.5; 1.7), w = 1.5.  The error stays
    within 2e-15 of the sum of the terms' moduli.
    Where the value is not finite, ``NumericalError`` names a, b, c and w:
    at c = 100.5 the 1 - 1/w connection's Gamma products overflow
    (a = 0.5, b = 0.7, w = 0.95).
    Repeated evaluation at one parameter set should go through one
    ``starkdim.specfun.Hyp2F1``, which keeps the parameter-only constants
    and per-term values that this call computes and discards; a kept
    instance may be shared between threads, as it grows those values under
    its own lock.  An a, b, c or w that is not finite raises
    ``OutOfRange``.
    """
    value = Hyp2F1(a, b, c)(w, cut_side)
    if not cmath.isfinite(value):
        raise NumericalError(
            f"2F1 is not finite at a={a}, b={b}, c={c}, w={w}")
    return value

