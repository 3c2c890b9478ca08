"""Semiclassical barrier analysis for field ionization.

The separated equation along the downhill parabolic coordinate sees an
effective potential with a classically forbidden region between the
Coulomb well and the field-lowered continuum.  This module locates the
classical turning points, evaluates the tunneling exponent by quadrature,
and provides the closed-form low-field transmittance estimate together
with a calibrated ionization-rate curve for comparison against the
resummed model.

The quadrature is the tanh-sinh rule of Takahasi and Mori (Publ. RIMS 9,
721, 1974): closed-form nodes and weights, nested by halving the step,
with nodes crowding double-exponentially into both turning points, so one
rule serves barriers from the over-barrier threshold to turning points 15
decades apart.

Sign convention: the potential returned by ``barrier_potential`` is
positive inside the forbidden region, so the transmittance reads
T = exp(-2 * integral of sqrt(U) between the turning points).
"""

# annotations stay unevaluated strings (PEP 563), so the Sequence and
# Iterable they name are not imported and collections.abc is not loaded
# for them
from __future__ import annotations

import functools
import math

from ._record import Record
from .errors import (DomainError, IntegrationFailure, NoBarrier,
                     NonConvergent, NoReference, NumericalError)

# Gamma values below this are too weak to anchor a calibration
CALIBRATION_FLOOR = 1e-30

# log-spaced (alpha, low field, high field) grids for rate comparisons;
# each bracket spans roughly a quarter of the critical field up to three
# times it, so the calibration anchor sits where the resummed rate still
# tracks the tunneling exponential
LANDAU_COMPARISON_RANGES = (
    (3.0, 0.03, 0.4),
    (2.5, 0.1, 1.2),
    (2.0, 0.4, 5.0),
    (1.5, 3.0, 30.0),
)

_EXPONENT_ABS_TOL = 1e-10
# tanh-sinh rule: nodes t = k h with |t| <= _T_MAX, h = 1/2 halved at most
# _MAX_HALVINGS times
_T_MAX = 3.2
_MAX_HALVINGS = 8
# a root step this small relative to the iterate ends the search; bisection
# alone resolves any bracket of doubles in about 2100 steps
_ROOT_RTOL = 4.0 * 2.0**-52
_ROOT_MAX_STEPS = 2200


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 2.0:
        raise DomainError(f"barrier shape requires 0 < p < 2, got p={p}")
    return p


def _check_field(field: float) -> float:
    field = float(field)
    if not 0.0 < field < math.inf:
        raise DomainError(f"field must be positive and finite, got {field}")
    return field


class BarrierModel(Record):
    """Turning points and transmittance of the ionization barrier."""

    def __init__(self, p: float, field: float, y1: float, y2: float,
                 transmittance: float):
        _check_p(p)
        _check_field(field)
        if not 0.0 < y1 < y2:
            raise ValueError(f"turning points must satisfy 0 < y1 < y2, "
                             f"got ({y1}, {y2})")
        # deep barriers underflow exp() to 0.0, so 0 is admitted
        if not 0.0 <= transmittance <= 1.0:
            raise ValueError(f"transmittance out of [0, 1]: {transmittance}")
        d = self.__dict__
        d["p"], d["field"], d["y1"], d["y2"], d["transmittance"] = (
            p, field, y1, y2, transmittance)


def barrier_potential(p: float, field: float, y: float) -> float:
    """Effective potential along the downhill coordinate, positive inside
    the forbidden region."""
    p = _check_p(p)
    field = _check_field(field)
    y = float(y)
    if not y > 0.0:
        raise DomainError(f"coordinate must be positive, got y={y}")
    return -0.25 * (2.0 / y + field * y - 1.0 / p**2 + p * (2.0 - p) / y**2)


def _cubic(p: float, field: float):
    """U(y) = -f(y) / (4 y^2) with f the returned cubic; U > 0 iff f < 0."""

    def f(y):
        return field * y**3 - y**2 / p**2 + 2.0 * y + p * (2.0 - p)

    def fprime(y):
        return 3.0 * field * y**2 - 2.0 * y / p**2 + 2.0

    return f, fprime


def _bracketed_root(f, fprime, lo: float, hi: float, y: float) -> float:
    """Zero of f between lo and hi, where f changes sign, searched from y:
    a Newton step when it stays inside the shrinking bracket and at most
    halves the step before it, a bisection otherwise, until a step is
    within a few ulp."""
    lo_negative = f(lo) < 0.0
    step = hi - lo
    for _ in range(_ROOT_MAX_STEPS):
        fy = f(y)
        if (fy < 0.0) == lo_negative:
            lo = y
        else:
            hi = y
        d = fprime(y)
        new = y - fy / d if d != 0.0 else math.inf
        if abs(new - y) <= _ROOT_RTOL * abs(y):
            return new
        if not (lo < new < hi and abs(new - y) <= 0.5 * abs(step)):
            new = 0.5 * (lo + hi)
        step, y = new - y, new
        if abs(step) <= _ROOT_RTOL * abs(y):
            return y
    raise NonConvergent(f"turning point not resolved in [{lo}, {hi}]")


def turning_points(p: float, field: float) -> tuple:
    """Both positive zeros of the barrier potential, inner first.

    The outer one lies near 1/(field p^2), where the cubic's field * y^3
    leaves the float range for fields below about 1e-100 (4.4e-100 at
    p = 0.02, 7.9e-104 at p = 1.5): there ``NumericalError`` is raised,
    naming p and the field."""
    p = _check_p(p)
    field = _check_field(field)
    f, fprime = _cubic(p, field)
    # f has a local minimum at the larger root of f'; the barrier exists
    # iff that minimum is negative
    disc = 4.0 / p**4 - 24.0 * field
    if disc <= 0.0:
        raise NoBarrier(f"no forbidden region at p={p}, field={field}")
    y_min = (2.0 / p**2 + math.sqrt(disc)) / (6.0 * field)
    try:
        if f(y_min) < 0.0:
            # the zero-field root lies below y1 (f exceeds the field-free
            # quadratic by field * y^3); the root sum bounds y2 by
            # hi = 1/(field p^2), where f(hi) = 2 hi + p(2 - p) > 0, and
            # Newton descends monotonically onto y2 from hi, where f is
            # convex and increasing
            hi = 1.0 / (field * p**2)
            return (_bracketed_root(f, fprime, 0.0, y_min,
                                    zero_field_inner_turning_point(p)),
                    _bracketed_root(f, fprime, y_min, hi, hi))
    except OverflowError:
        pass
    else:
        # over the barrier, unless y_min overflowed to inf: f(y_min) is nan
        if y_min < math.inf:
            raise NoBarrier(f"field {field} is above the over-barrier "
                            f"threshold for p={p}")
    raise NumericalError(f"barrier turning points at p={p}, field={field}:"
                         " the cubic overflows a float near the outer one,"
                         " 1/(field p^2)")


@functools.cache
def _level(n: int) -> list:
    """The nodes that level n of the tanh-sinh rule adds, built once: every
    k at n = 0, the odd k after."""
    h = 0.5**(n + 1)
    kmax = int(_T_MAX / h)
    return [_node(k * h) for k in range(-kmax, kmax + 1) if n == 0 or k % 2]


def _node(t: float) -> tuple:
    """(side, 1 - |s|, weight) at s = tanh(u), u = pi/2 sinh t: side -1
    where s < 0, weight sqrt(1 - s^2) ds/dt = (pi/2) cosh t sech^3 u."""
    # 1 - |s| = 2 / (1 + e^(2|u|)) keeps its digits as |s| nears 1
    d = 2.0 / (1.0 + math.exp(math.pi * math.sinh(abs(t))))
    return (math.copysign(1.0, t), d,
            0.5 * math.pi * math.cosh(t) * (d * (2.0 - d)) ** 1.5)


def wkb_exponent(p: float, field: float) -> float:
    """The positive exponent 2 * integral of sqrt(U) across the barrier.

    With y = mid + half*s the integral is sqrt(field) half^2 times the
    integral over [-1, 1] of sqrt(1 - s^2) h(s), h = sqrt(y - y3) / y and
    y3 the negative root of the cubic.  The tanh-sinh rule of Takahasi and
    Mori (s = tanh(pi/2 sinh t), nodes t = k*step with |t| <= 3.2) sums it:
    the step starts at 1/2 and halves up to 8 times, each level adding only
    the odd k, until two levels agree to 1e-10, absolute below 1 and
    relative above (deep barriers reach exponents of ~1e12); otherwise it
    raises ``IntegrationFailure``.  y is taken from the nearer turning point
    with 1 - |s| in closed form, so it keeps its digits at both ends.  The
    comparison grids converge at 51 or 103 integrand evaluations.  Against
    a 40-digit integral between the same turning points the result is
    within 5e-16 relative on those grids and within 2e-13 at the deep
    barrier p = 0.02, field = 1e-5.
    """
    p = _check_p(p)
    field = _check_field(field)
    return _exponent_between(p, field, *turning_points(p, field))


def _third_root(p: float, field: float, y1: float, y2: float) -> float:
    """The negative root of the cubic, from the root product: the root sum
    1/(field p^2) - y1 - y2 cancels for deep barriers."""
    return -p * (2.0 - p) / (field * y1 * y2)


def _exponent_between(p: float, field: float, y1: float, y2: float) -> float:
    y3 = _third_root(p, field, y1, y2)
    half = 0.5 * (y2 - y1)
    terms, prev = [], math.inf
    for n in range(_MAX_HALVINGS + 1):
        for side, d, w in _level(n):
            y = (y1 if side < 0.0 else y2) - side * half * d
            terms.append(w * math.sqrt(y - y3) / y)
        cur = math.sqrt(field) * half**2 * 0.5**(n + 1) * math.fsum(terms)
        if abs(cur - prev) <= _EXPONENT_ABS_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise IntegrationFailure(
        f"barrier integral did not converge to {_EXPONENT_ABS_TOL} "
        f"at p={p}, field={field}")


def wkb_transmittance(p: float, field: float) -> float:
    """Numeric barrier transmittance; underflows to 0.0 for deep barriers.

    Public as the one-number form of :func:`barrier_model`, which gives the
    same value with the turning points: for callers that want T alone."""
    return math.exp(-wkb_exponent(p, field))


def barrier_model(p: float, field: float) -> BarrierModel:
    p = _check_p(p)
    field = _check_field(field)
    y1, y2 = turning_points(p, field)
    return BarrierModel(
        p=p, field=field, y1=y1, y2=y2,
        transmittance=math.exp(-_exponent_between(p, field, y1, y2)))


def zero_field_inner_turning_point(p: float) -> float:
    """Inner turning point in the zero-field limit, p^2 + p*sqrt(2p)."""
    p = _check_p(p)
    return p**2 + p * math.sqrt(2.0 * p)


def landau_log_transmittance(p: float, field: float) -> float:
    """Logarithm of the closed-form low-field transmittance estimate; -inf
    where the closed form underflows to 0.0."""
    p = _check_p(p)
    field = _check_field(field)
    y1 = zero_field_inner_turning_point(p)
    product, cube = p**2 * field * y1, 3.0 * p**3 * field
    ratio = 4.0 / product if product else math.inf
    # where the product or its reciprocal leaves the float range, the log
    # is summed factor by factor; where cube underflows, 2/cube is +inf
    log_ratio = (math.log(ratio) if 0.0 < ratio < math.inf else
                 math.log(4.0 / y1) - 2.0 * math.log(p) - math.log(field))
    return p * log_ratio - (2.0 / cube if cube else math.inf) + y1 / p


def landau_closed_form(p: float, field: float) -> float:
    """Closed-form low-field transmittance; underflows to 0.0 when tiny."""
    return math.exp(landau_log_transmittance(p, field))


def keldysh_exponent(p: float) -> float:
    """Universal tunneling exponent coefficient from the ionization
    potential 1/(2 p^2); algebraically equal to 2/(3 p^3).

    Public as the weak-field reference of :func:`wkb_exponent`, which tends
    to keldysh_exponent(p) / field: the semiclassical acceptance check
    compares the two.  The same b = 2/(3 p^3) sets the series' large-order
    ratio and the dispersion integrand's peak."""
    p = _check_p(p)
    ip = 1.0 / (2.0 * p**2)
    return 2.0 * (2.0 * ip) ** 1.5 / 3.0


def landau_calibrated_rate(p: float, fields: Sequence[float],
                           gammas: Iterable[float]) -> tuple:
    """Closed-form rate curve scaled by one constant; returns
    (calibration_field, [(field, rate), ...]).

    ``gammas`` holds the reference rate Gamma at each of ``fields``, as
    floats; an iterator is read no further than the calibration field, the
    first field, in the order given, whose Gamma exceeds CALIBRATION_FLOOR
    (the lowest one on an ascending grid).  Without one, ``NoReference`` is
    raised.  A rate that underflows is 0.0.  ``NumericalError``, naming p
    and the field, is raised where the closed form underflows to 0.0 at the
    calibration field (below about 3.7e-309 at p = 1), so that no finite
    constant scales it, and where a calibrated rate overflows a float."""
    p = _check_p(p)
    for ref_field, ref_gamma in zip(fields, gammas):
        if ref_gamma > CALIBRATION_FLOOR:
            break
    else:
        raise NoReference(
            f"no reference point with gamma above {CALIBRATION_FLOOR}")
    log_c = math.log(ref_gamma) - landau_log_transmittance(p, ref_field)
    if not math.isfinite(log_c):
        raise NumericalError("no finite calibration constant at the reference"
                             f" (p={p}, field={ref_field})")
    out = []
    for field in fields:
        log_rate = log_c + landau_log_transmittance(p, field)
        try:
            out.append((float(field), math.exp(log_rate)))
        except OverflowError:
            raise NumericalError("calibrated rate overflows a float"
                                 f" (p={p}, field={field})") from None
    return float(ref_field), out
