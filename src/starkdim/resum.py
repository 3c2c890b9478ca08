"""Hypergeometric continuation of the weak-field energy series.

The divergent even-order series is matched to a four-parameter model whose
argument is shifted by one: the resonance energy is

    E(field) = e0 * (1 + h4 z G 2F1(h1, h2; h1+h2+l; 1 + h3 z)),

with z = (field/4)^2, G the Gamma-prefactor ratio at the branch power l,
and (h1..h4) fixed in closed form by the coefficient ratios of the series
through its fourth nonzero order.  Because the model's argument sits past
the cut for every positive field, the continuation acquires an imaginary
part at all field strengths; its physical branch (decaying states) is the
one with Im E <= 0.

Everything in E(field) that does not depend on the field -- G, and the
Gamma products, digammas, route checks, series rows and Taylor anchors of
the 2F1 continuation (a ``specfun.Hyp2F1``) -- is a function of (h1, h2, l)
alone.  It is built by the first field point that needs it and kept, with
a lock, in the model and for the 16 parameter sets used last: threads
share it and evaluate it one at a time under that lock, and a model
fitted again to the same series takes the continuation the last one left
and only sums series.  No value depends on whether a continuation was
built or taken (see ``specfun``).

One layer earlier, the fit is kept the same way: :func:`fit_model` keeps
the parameters of the 16 fits it made last, keyed by the floats of E_0..E_8
it reads, l and the series' alpha (the last two as given, which an error
names; equal values share an entry, as the model takes their floats), and
builds a new ``HypModel`` from them on every call, so models share a
continuation only through the registry.  A failed fit is not kept and
raises again on every call.  The kept parameters are immutable numbers, so
threads share them without a lock: two that miss at once each fit, and
keep equal parameters.

Every evaluation on the cut -- a scalar energy or rate, a resonance point,
a sweep, the CLI's rate grids and the dispersion check's nodes -- runs one
grid function (a scalar is a grid of one) that takes the continuation's
lock once per grid, so each kept entry is built under that lock.

Also here: field sweeps, the linear high-field tail fit that defines the
ionization onset (critical field), and the power-law exponent of tail
slopes across dimensions.
"""

from __future__ import annotations

import cmath
import math
import numbers
from _thread import allocate_lock
from functools import cached_property, lru_cache

from . import DEFAULT_L
from ._record import Record
from .coeffs import EnergySeries, energy_series, format_alpha
from .errors import (
    DegenerateSeries,
    InsufficientData,
    InvalidL,
    NoIonization,
    NonlinearTail,
    NonPositiveSlope,
    NumericalError,
    OutOfRange,
)
from .specfun import Hyp2F1, _Series, complex_gamma, real_on_axis

# sweep ranges (alpha, highest field) bracketing each ionization onset;
# the alpha=1.5 tail is still curving at 12, the linear regime needs ~20
STANDARD_SWEEP_RANGES = (
    (3.0, 1.0),
    (2.5, 2.0),
    (2.0, 5.0),
    (1.5, 20.0),
)


class HypModel(Record):
    """Fitted continuation parameters plus the series context they encode.

    The parameters come from a real series, so h3, h4, e0 and l are real
    and h1, h2 are real or a conjugate pair; a model breaking this is
    rejected with ``OutOfRange``.  Then 2F1(h1, h2; h1+h2+l; w) is real
    below the cut and its two cut sides are complex conjugates
    (DLMF 15.2.3), which is what lets :func:`resonance` evaluate one side.
    """

    def __init__(self, h1: complex, h2: complex, h3: complex, h4: complex,
                 l: float, e0: float, alpha: float):
        for name, value in (("h3", h3), ("h4", h4)):
            if complex(value).imag != 0.0:
                raise OutOfRange(f"model parameter {name} must be real")
        for name, value in (("e0", e0), ("l", l)):
            if not isinstance(value, numbers.Real):
                raise OutOfRange(f"model parameter {name} must be real")
        if not 4 < l < math.inf:
            raise InvalidL("branch power l must be finite and exceed 4")
        if not real_on_axis(h1, h2, h1 + h2 + l):
            raise OutOfRange(
                "model parameters h1, h2 must be real or a conjugate pair"
            )
        d = self.__dict__
        d["h1"], d["h2"], d["h3"], d["h4"] = h1, h2, h3, h4
        d["l"], d["e0"], d["alpha"] = l, e0, alpha

    @cached_property
    def _continuation(self):
        """(G, 2F1(h1, h2; h1+h2+l; .), its lock) from the registry, under
        the registry's lock: neither ``cached_property`` (from Python 3.12)
        nor ``lru_cache`` locks a miss, and threads that missed at once
        would each build an entry.  A failure names the model's alpha and l
        and is not kept."""
        h1, h2 = complex(self.h1), complex(self.h2)
        try:
            with _REGISTRY_LOCK:
                return _kept_continuation(
                    h1.real.hex(), h1.imag.hex(), h2.real.hex(),
                    h2.imag.hex(), float(self.l).hex())
        except NumericalError as exc:
            raise type(exc)(f"{exc} (alpha={self.alpha}, l={self.l})") from exc


_REGISTRY_LOCK = allocate_lock()


@lru_cache(maxsize=16)
def _kept_continuation(*bits):
    """The registry: (G, 2F1(h1, h2; h1+h2+l; .), a lock) for the
    ``float.hex`` bits of Re h1, Im h1, Re h2, Im h2 and l, so that -0.0 and
    0.0 never share; a failure is not kept.  A Hyp2F1 appends its kept rows
    and anchors without a lock, so it is made with its own: no thread
    reaches the one without the other."""
    h1r, h1i, h2r, h2i, l = map(float.fromhex, bits)
    h1, h2 = complex(h1r, h1i), complex(h2r, h2i)
    pref = (complex_gamma(l + h1) * complex_gamma(l + h2)
            / complex_gamma(l + h1 + h2))
    if not cmath.isfinite(pref):
        # the product of the two upper Gammas overflows first, from
        # l = 98.58 at alpha = 3, 98.72 at 2, 98.79 at 3/2, 97.49 at 20
        raise NumericalError(
            "continuation prefactor Gamma(l+h1)*Gamma(l+h2)/Gamma(l+h1+h2)"
            " overflows a float")
    # G is real for real or conjugate h1, h2; kept as a float, Im E takes
    # no part of Re F (see lower_side_rate)
    return pref.real, Hyp2F1(h1, h2, h1 + h2 + l), allocate_lock()


class ResonancePoint(Record):
    """Complex resonance energy at one field strength."""

    def __init__(self, field: float, energy: complex):
        d = self.__dict__
        d["field"], d["energy"] = field, energy

    @property
    def delta(self) -> float:
        """Stark-shifted level position."""
        return self.energy.real

    @property
    def gamma(self) -> float:
        """Ionization decay rate (nonnegative; zero at zero field)."""
        return -2.0 * self.energy.imag + 0.0


def model_coefficients(model: HypModel, count: int = 4):
    """Even-order energy coefficients implied by the model.

    Returns [E_2, E_4, ...] (length ``count``, a nonnegative int, else
    ``OutOfRange``) from the continuation's Taylor terms
    h4 (h1)_k (h2)_k Gamma(l-k) h3^k / k!; for fit round-trips.  At integer
    l the terms end at the pole of Gamma(l-k): count > l raises
    ``OutOfRange``.  Where a Taylor term itself leaves the float range,
    ``NumericalError`` is raised: from E_58 at alpha = 20, l = 30, whose
    term is about -1.44e317 before its division by 16^29.
    """
    if not isinstance(count, numbers.Integral) or count < 0:
        raise OutOfRange(f"count must be a nonnegative int, got {count!r}")
    if count > model.l and float(model.l).is_integer():
        raise OutOfRange(f"count {count} passes the pole of Gamma(l-k) at"
                         f" k = l = {model.l}")
    # (h1)_k (h2)_k Gamma(l-k) h3^k / k! is Gamma(l) times the term of
    # 2F1(h1, h2; 1-l; -h3): (1-l) + k = -((l-1) - k), so the ratio flips
    # two signs, exactly, and only the sign of a zero part can move
    terms = _Series(model.h1, model.h2, 1 - model.l).terms(
        -model.h3, count, model.h4 * _gamma_of_l(model.l, model.alpha))
    real = complex(model.h1).imag == 0.0
    coeffs = []
    for k, tk in enumerate(terms):
        value = model.e0 * tk
        # 16^(k+1) overflows a float from k = 255 (2^1024): past that,
        # the same exact scaling by 2^(-4(k+1))
        value = (value / 16.0 ** (k + 1) if k < 255 else
                 complex(math.ldexp(value.real, -4 * k - 4),
                         math.ldexp(value.imag, -4 * k - 4)))
        # a real pair's coefficients are real, with Im = +0 whichever sign
        # of zero the flipped ratio leaves past the pole, at k > l - 1
        coeffs.append(complex(value.real, 0.0) if real else value)
        if not cmath.isfinite(coeffs[-1]):
            raise NumericalError(
                f"Taylor term of model coefficient E_{2 * k + 2} leaves the"
                f" float range (alpha={model.alpha}, l={model.l})")
    return coeffs


def _gamma_of_l(l, alpha) -> complex:
    """Gamma(l) of the fit and of its re-expansion.  It overflows a float
    from l = 142.58; the ``NumericalError`` names that stage, alpha and l."""
    try:
        return complex_gamma(l)
    except NumericalError as exc:
        raise type(exc)(f"Gamma(l) of the fit: {exc}"
                        f" (alpha={alpha}, l={l})") from exc


def fit_model(series: EnergySeries, l: float = DEFAULT_L) -> HypModel:
    """Fix the four model parameters from E_2..E_8 in closed form.

    Scaled coefficients t_k = E_{2(k+1)} 16^(k+1) / E_0 obey
    t_{k+1}/t_k * (k+1)(l-k-1) = h3 (P + k S + k^2) with S = h1 + h2 and
    P = h1 h2, so three consecutive ratios determine (h3, S, P) linearly;
    h1, h2 are the roots of x^2 - S x + P and h4 = t_0 / Gamma(l).  The
    result is verified by re-expansion before it is returned.  A fit with
    h3 < 0 never reaches the cut (Gamma = 0 at every field), which happens
    for l below about 4.45 at alpha = 1.01, 4.95 at 3 and 7.0 at 20; it
    raises ``DegenerateSeries``.  The parameters are kept (see the module
    docstring); each call returns a new model.
    """
    if not 4 < l < math.inf:
        raise InvalidL("branch power l must be finite and exceed 4")
    if series.order < 4:
        raise InsufficientData("fit needs series coefficients through order 4")
    try:
        e = tuple(float(x) for x in series.e_coeffs[:5])
    except OverflowError:
        raise DegenerateSeries("series coefficients overflow a float"
                               f" (alpha={format_alpha(series.alpha)})") from None
    return HypModel(*_fitted(e, l, series.alpha))


@lru_cache(maxsize=16)
def _fitted(e, l, alpha):
    """The fields of :func:`fit_model`'s model, from the floats ``e`` of
    E_0..E_8 of a series at ``alpha``.  l and alpha stay as given, so that
    a failure names them as given; values that compare equal share one
    entry, as the model takes their floats."""
    e0 = e[0]
    if e0 == 0:
        raise DegenerateSeries("zero leading coefficient")
    t = [e[k + 1] * 16.0 ** (k + 1) / e0 for k in range(4)]
    if any(tk == 0 for tk in t):
        raise DegenerateSeries("vanishing series coefficient: ratios undefined")
    rho = [t[k + 1] / t[k] for k in range(3)]
    r = [(k + 1) * rho[k] * (l - k - 1) for k in range(3)]
    h3 = 0.5 * (r[0] - 2.0 * r[1] + r[2])
    scale = max(abs(x) for x in r)
    if abs(h3) <= 1e-14 * scale:
        raise DegenerateSeries("ratio system is singular (h3 ~ 0)")
    if h3 < 0.0:
        raise DegenerateSeries(
            "fit has no branch cut at positive field"
            f" (alpha={format_alpha(alpha)}, l={l}): h3 = {h3:.6g} < 0")
    s_sum = (r[1] - r[0] - h3) / h3
    prod = r[0] / h3
    # h1 comes first in (real, imag) order: the principal root is real and
    # nonnegative, or has real part 0.0 and a positive imaginary part
    root = cmath.sqrt(complex(s_sum * s_sum - 4.0 * prod))
    h1 = 0.5 * (s_sum - root)
    h2 = 0.5 * (s_sum + root)
    h4 = t[0] / _gamma_of_l(l, format_alpha(alpha))
    fields = (h1, h2, complex(h3), h4, float(l), e0, float(alpha))
    residual = fit_round_trip_residual(HypModel(*fields),
                                       EnergySeries(alpha, 4, e))
    if not residual <= 1e-10:
        raise DegenerateSeries(
            f"fit round-trip residual {residual:.3g} exceeds 1e-10"
            f" (alpha={format_alpha(alpha)}, l={l})")
    return fields


def fit_round_trip_residual(model: HypModel, series: EnergySeries) -> float:
    """Largest relative mismatch between the model's re-expansion and the
    series coefficients E_2..E_8; NaN if any mismatch is NaN."""
    back = model_coefficients(model, 4)
    errors = [abs(b - float(e)) / abs(float(e))
              for b, e in zip(back, series.e_coeffs[1:5])]
    return math.nan if any(map(math.isnan, errors)) else max(errors)


def _lower_side(model: HypModel, fields, rate: bool) -> list:
    """E(field - i0) at each of ``fields`` in order, or with ``rate`` the
    signed discontinuity 2 Im E(field - i0), each field checked in turn.
    Zero field gives e0 (rate 0.0) without the continuation; the first
    other field takes it, and its lock to the end of the grid.  Each such
    point is one ``Hyp2F1.cut`` (``cut_imag`` for a rate) at v = h3 z, a
    ``NumericalError`` naming alpha and the field.  e0, h4 and G stay
    separate factors: their product formed once would round differently."""
    e0, h4, h3 = model.e0, model.h4, model.h3.real
    values, lock = [], None
    try:
        for field in fields:
            field = float(field)
            if not 0.0 <= field < math.inf:
                raise OutOfRange("field must be finite" if field >= 0.0
                                 else "field must be nonnegative")
            if field == 0.0:
                values.append(0.0 if rate else complex(e0))
                continue
            try:
                z = (field / 4.0) ** 2
            except OverflowError:
                z = math.inf
            v = h3 * z
            if not math.isfinite(v):
                raise NumericalError(
                    "offset h3 (field/4)^2 past the branch point overflows"
                    f" a float (alpha={model.alpha}, field={field})")
            if lock is None:  # set once held: only a held lock is released
                pref, hyp, held = model._continuation
                evaluate = hyp.cut_imag if rate else hyp.cut
                held.acquire()
                lock = held
            try:
                f = evaluate(v, cut_side=-1)
            except NumericalError as exc:
                raise type(exc)(f"{exc} (alpha={model.alpha}, field={field})"
                                ) from exc
            values.append(2.0 * (e0 * ((h4 * z * pref).real * f)) + 0.0
                          if rate else e0 * (1.0 + h4 * z * pref * f))
    finally:
        if lock is not None:
            lock.release()
    return values


def lower_side_energy(model: HypModel, field: float) -> complex:
    """Model energy E(field - i0) on the lower side of the cut (field >= 0),
    Im E unfolded: 2 Im E is the model's signed discontinuity.

    Zero field returns e0 exactly.  Otherwise the continuation is evaluated
    once, at offset h3 z past w = 1, as e0 (1 + h4 z G F); the upper side
    is its conjugate (the model is real, see :class:`HypModel`).  A
    ``NumericalError`` names alpha, the field and the 2F1 formula that
    failed, or that the offset overflows a float (from F ~ 3.03e152 at
    alpha = 3).
    """
    return _lower_side(model, (field,), False)[0]


def lower_side_rate(model: HypModel, field: float) -> float:
    """The signed discontinuity 2 Im E(field - i0), bit for bit
    ``2.0 * lower_side_energy(model, field).imag``, with the same errors.

    h4 and G are real, so Im E = e0 (h4 z G) Im F and Re F is never formed:
    up to x = 1 + h3 z = 1 + max(10, 2H), H = max(1, min(l/6, 15)) the
    Re F hand-over (x = 11 at l <= 30, 31 from l = 90), only the reflected
    series for Im F is summed (:meth:`specfun.Hyp2F1.cut_imag`).  The
    closing ``+ 0.0`` gives a rate that underflows to zero the sign the
    complex product gives it.
    """
    return _lower_side(model, (field,), True)[0]


def resonance(model: HypModel, field: float) -> ResonancePoint:
    """Complex resonance energy at one field strength (field >= 0): the
    decaying branch, :func:`lower_side_energy` with Im E made nonpositive,
    as the sweep of a one-field grid.

    For a complex pair (h1, h2) the model's Im E changes sign at high field,
    first near F = 65 at alpha = 5/2, 98 at 2, 490 at 3, 589 at 3/2 and
    7.2e4 at 11/10 (none up to 1e7 at alpha = 7 or 20); beyond that point
    Gamma is the folded value 2 |Im E|.
    """
    return sweep(model, (field,))[0]


def sweep(model: HypModel, fields) -> list:
    """:func:`resonance` over a strictly increasing nonnegative field grid,
    order preserved: :func:`lower_side_energy` at each field from one grid
    evaluation, with the continuation's lock taken once, and Im E folded to
    nonpositive in each point.  A field that is negative or not finite
    raises ``OutOfRange`` as the scalar entries do."""
    grid = [float(x) for x in fields]
    if not grid:
        raise OutOfRange("field grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise OutOfRange("field grid must be strictly increasing")
    return [ResonancePoint(field=field, energy=complex(e.real, -abs(e.imag)))
            for field, e in zip(grid, _lower_side(model, grid, False))]


# ---------------------------------------------------------------------------
# derived quantities


class LinearTailFit(Record):
    """Linear fit of the decay rate over a trailing window of the sweep."""

    def __init__(self, window_fraction: float, field_lo: float,
                 field_hi: float, slope: float, intercept: float,
                 r_squared: float, n_points: int):
        d = self.__dict__
        d["window_fraction"], d["field_lo"], d["field_hi"] = (
            window_fraction, field_lo, field_hi)
        d["slope"], d["intercept"], d["r_squared"], d["n_points"] = (
            slope, intercept, r_squared, n_points)

    @property
    def critical_field(self) -> float:
        """Field-axis intercept: the effective ionization onset."""
        return -self.intercept / self.slope


_WINDOW_FRACTIONS = (0.3, 0.2, 0.4, 0.5)
_GAMMA_FLOOR = 1e-15
_R2_PREFERRED = 0.99
_R2_MINIMUM = 0.95


def _line_fit(x, y):
    """Least-squares (slope, intercept) of y against x from centred sums."""
    mx, my = math.fsum(x) / len(x), math.fsum(y) / len(y)
    dx = [a - mx for a in x]
    slope = (math.fsum(d * (b - my) for d, b in zip(dx, y))
             / math.fsum(d * d for d in dx))
    return slope, my - slope * mx


def _fit_window(points, fraction: float):
    lo = points[-1].field - fraction * (points[-1].field - points[0].field)
    sel = [pt for pt in points
           if pt.field >= lo and 0.0 < pt.gamma < math.inf]
    if len(sel) < 8 or sel[0].field == sel[-1].field:
        return None
    x = [pt.field for pt in sel]
    y = [pt.gamma for pt in sel]
    mean = math.fsum(y) / len(y)
    ss_tot = math.fsum((b - mean) ** 2 for b in y)
    # equal rates: the flat line through them, which fits them exactly
    slope, intercept = _line_fit(x, y) if ss_tot else (0.0, y[0])
    ss_res = math.fsum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    return LinearTailFit(
        window_fraction=fraction,
        field_lo=x[0],
        field_hi=x[-1],
        slope=slope,
        intercept=intercept,
        r_squared=1.0 - ss_res / ss_tot if ss_tot else 1.0,
        n_points=len(sel),
    )


def linear_tail_fit(points) -> LinearTailFit:
    """Best linear description of the high-field decay-rate tail.

    Tries a trailing window of 30% of the swept range first and keeps it if
    its coefficient of determination reaches 0.99; otherwise the 20/40/50%
    windows are also fitted and the best one wins.  Windows need at least 8
    points with a positive finite rate.  Equal rates fit a flat line, slope
    0, and like any slope <= 0 it raises ``NonlinearTail``.
    """
    pts = sorted(points, key=lambda pt: pt.field)
    if len(pts) < 2:
        raise InsufficientData("tail fit needs a swept grid")
    if all(pt.gamma < _GAMMA_FLOOR for pt in pts):
        raise NoIonization("no decay rate above threshold anywhere on the grid")
    fits = []
    for fraction in _WINDOW_FRACTIONS:
        fit = _fit_window(pts, fraction)
        if fit is None:
            continue
        if fraction == _WINDOW_FRACTIONS[0] and fit.r_squared >= _R2_PREFERRED:
            fits = [fit]
            break
        fits.append(fit)
    if not fits:
        raise InsufficientData(
            "fewer than 8 usable points in every candidate window"
        )
    best = max(fits, key=lambda f: f.r_squared)
    if best.slope <= 0.0 or best.r_squared < _R2_MINIMUM:
        raise NonlinearTail(
            f"tail is not acceptably linear (R^2 = {best.r_squared:.4f},"
            f" slope = {best.slope:.3e})"
        )
    return best


def critical_field(points) -> float:
    """Ionization onset: field-axis intercept of the linear tail fit."""
    return linear_tail_fit(points).critical_field


def slope_exponent(pairs) -> float:
    """Power-law exponent relating high-field tail slopes to the channel
    scale p: least-squares fit of log(slope) against log(p).  Each p and
    each slope must be positive and finite (``OutOfRange`` for p,
    ``NonPositiveSlope`` for a slope)."""
    data = [(float(p), float(s)) for p, s in pairs]
    if len(data) < 3 or len({p for p, _ in data}) < 3:
        raise InsufficientData("need at least 3 pairs with distinct p")
    if not all(0.0 < p < math.inf for p, _ in data):
        raise OutOfRange("channel scale p must be positive and finite")
    if not all(0.0 < s < math.inf for _, s in data):
        raise NonPositiveSlope("tail slopes must be positive and finite")
    return _line_fit([math.log(p) for p, _ in data],
                     [math.log(s) for _, s in data])[0]


def standard_model(alpha, l: float = DEFAULT_L) -> HypModel:
    """The order-4 series at ``alpha`` fitted at branch power ``l``: exact
    for a rational alpha, double precision for a float one (see
    :func:`coeffs.energy_series`)."""
    return fit_model(energy_series(alpha, 4), l)
