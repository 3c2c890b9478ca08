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
Gamma products, digammas and route checks of the 2F1 continuation (a
``specfun.Hyp2F1``) -- is computed once per :class:`HypModel`, on its first
evaluation, and kept on the model; each field point then only sums series.

Also here: field sweeps, the linear high-field tail fit that defines the
ionization onset (critical field), and the power-law exponent of tail
slopes across dimensions.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

from .coeffs import EnergySeries, energy_series
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
from .specfun import Hyp2F1, complex_gamma, real_on_axis, rising_factorial

DEFAULT_L = 30.0

# sweep ranges (alpha, highest field) bracketing each ionization onset;
# the alpha=1.5 tail is still curving at 12, the linear regime needs ~20
STANDARD_SWEEP_RANGES = (
    (3.0, 1.0),
    (2.5, 2.0),
    (2.0, 5.0),
    (1.5, 20.0),
)


@dataclass(frozen=True)
class HypModel:
    """Fitted continuation parameters plus the series context they encode.

    The parameters come from a real series, so h3, h4, e0 and l are real
    and h1, h2 are real or a conjugate pair; a model breaking this is
    rejected with ``OutOfRange``.  Then 2F1(h1, h2; h1+h2+l; w) is real
    below the cut and its two cut sides are complex conjugates
    (DLMF 15.2.3), which is what lets :func:`resonance` evaluate one side.
    """

    h1: complex
    h2: complex
    h3: complex
    h4: complex
    l: float
    e0: float
    alpha: float

    def __post_init__(self):
        for name in ("h3", "h4"):
            if complex(getattr(self, name)).imag != 0.0:
                raise OutOfRange(f"model parameter {name} must be real")
        for name in ("e0", "l"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise OutOfRange(f"model parameter {name} must be real")
        if not self.l > 4:
            raise InvalidL("branch power l must exceed 4")
        if not real_on_axis(self.h1, self.h2, self.h1 + self.h2 + self.l):
            raise OutOfRange(
                "model parameters h1, h2 must be real or a conjugate pair"
            )

    @cached_property
    def _continuation(self):
        """(G, 2F1(h1, h2; h1+h2+l; .)) with every parameter-only constant
        of the continuation computed: built on the first evaluation and
        kept with the model, so each further field point only sums series."""
        context = f"(alpha={self.alpha}, l={self.l})"
        try:
            pref = (
                complex_gamma(self.l + self.h1)
                * complex_gamma(self.l + self.h2)
                / complex_gamma(self.l + self.h1 + self.h2)
            )
        except NumericalError as exc:
            raise type(exc)(f"{exc} {context}") from exc
        if not cmath.isfinite(pref):
            # the product of the two upper Gammas overflows first, from
            # l = 99 at alpha = 3, 2 and 3/2
            raise NumericalError(
                f"continuation prefactor G = {pref} is not finite {context}")
        return pref, Hyp2F1(self.h1, self.h2, self.h1 + self.h2 + self.l).precompute()


@dataclass(frozen=True)
class ResonancePoint:
    """Complex resonance energy at one field strength."""

    field: float
    energy: complex

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

    Returns [E_2, E_4, ...] (length ``count``) from the Taylor data of the
    analytic part of the continuation; used for fit round-trips.
    """
    out = []
    for k in range(count):
        tk = (
            model.h4
            * model.h3 ** k
            * rising_factorial(model.h1, k)
            * rising_factorial(model.h2, k)
            * complex_gamma(model.l - k)
            / math.factorial(k)
        )
        out.append(model.e0 * tk / 16.0 ** (k + 1))
    return out


def fit_model(series: EnergySeries, l: float = DEFAULT_L) -> HypModel:
    """Fix the four model parameters from E_2..E_8 in closed form.

    Scaled coefficients t_k = E_{2(k+1)} 16^(k+1) / E_0 obey
    t_{k+1}/t_k * (k+1)(l-k-1) = h3 (P + k S + k^2) with S = h1 + h2 and
    P = h1 h2, so three consecutive ratios determine (h3, S, P) linearly;
    h1, h2 are the roots of x^2 - S x + P and h4 = t_0 / Gamma(l).  The
    result is verified by re-expansion before it is returned.  A fit with
    h3 < 0 never reaches the cut (Gamma = 0 at every field), which happens
    for l below about 4.45 at alpha = 1.01, 4.95 at 3 and 7.0 at 20; it
    raises ``DegenerateSeries``.
    """
    if not l > 4:
        raise InvalidL("branch power l must exceed 4")
    if series.order < 4:
        raise InsufficientData("fit needs series coefficients through order 4")
    try:
        e = [float(x) for x in series.e_coeffs[:5]]
    except OverflowError:
        raise DegenerateSeries(
            f"series coefficients overflow a float (alpha={series.alpha})"
        ) from None
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
            f"fit has no branch cut at positive field (alpha={series.alpha},"
            f" l={l}): h3 = {h3:.6g} < 0")
    s_sum = (r[1] - r[0] - h3) / h3
    prod = r[0] / h3
    root = cmath.sqrt(complex(s_sum * s_sum - 4.0 * prod))
    h1 = 0.5 * (s_sum - root)
    h2 = 0.5 * (s_sum + root)
    if (h1.real, h1.imag) > (h2.real, h2.imag):
        h1, h2 = h2, h1
    h4 = t[0] / complex_gamma(l)
    model = HypModel(
        h1=h1,
        h2=h2,
        h3=complex(h3),
        h4=h4,
        l=float(l),
        e0=e0,
        alpha=float(series.alpha),
    )
    back = model_coefficients(model, 4)
    for k in range(4):
        if abs(back[k] - e[k + 1]) > 1e-10 * abs(e[k + 1]):
            raise DegenerateSeries(
                f"fit round-trip failed at order {2 * (k + 1)}:"
                f" {back[k]} vs {e[k + 1]}"
            )
    return model


def fit_round_trip_residual(model: HypModel, series: EnergySeries) -> float:
    """Largest relative mismatch between the model's re-expansion and the
    series coefficients E_2..E_8."""
    back = model_coefficients(model, 4)
    worst = 0.0
    for k in range(4):
        target = float(series.e_coeffs[k + 1])
        worst = max(worst, abs(back[k] - target) / abs(target))
    return worst


def lower_side_energy(model: HypModel, field: float) -> complex:
    """Model energy E(field - i0) on the lower side of the cut (field >= 0),
    Im E unfolded: 2 Im E is the model's signed discontinuity.

    Zero field returns e0 exactly.  Otherwise the continuation is evaluated
    once, at offset h3 z past w = 1; the upper side is its conjugate (the
    model is real, see :class:`HypModel`).  A ``NumericalError`` names
    alpha, the field and the 2F1 formula that failed, or that the offset
    overflows a float (from F ~ 3.03e152 at alpha = 3).
    """
    field = float(field)
    if not field >= 0.0:
        raise OutOfRange("field must be nonnegative")
    if not math.isfinite(field):
        raise OutOfRange("field must be finite")
    if field == 0.0:
        return complex(model.e0)
    try:
        z = (field / 4.0) ** 2
    except OverflowError:
        z = math.inf
    v = model.h3.real * z
    if not math.isfinite(v):
        raise NumericalError(
            "offset h3 (field/4)^2 past the branch point overflows a float"
            f" (alpha={model.alpha}, field={field})")
    pref, hyp = model._continuation
    try:
        f = hyp.cut(v, cut_side=-1)
    except NumericalError as exc:
        raise type(exc)(f"{exc} (alpha={model.alpha}, field={field})") from exc
    return model.e0 * (1.0 + model.h4 * z * pref * f)


def resonance(model: HypModel, field: float) -> ResonancePoint:
    """Complex resonance energy at one field strength (field >= 0): the
    decaying branch, :func:`lower_side_energy` with Im E made nonpositive.

    For a complex pair (h1, h2) the model's Im E changes sign at high field,
    first near F = 65 at alpha = 5/2, 98 at 2, 490 at 3, 589 at 3/2 and
    7.2e4 at 11/10 (none up to 1e7 at alpha = 7 or 20); beyond that point
    Gamma is the folded value 2 |Im E|.
    """
    energy = lower_side_energy(model, field)
    return ResonancePoint(
        field=float(field), energy=complex(energy.real, -abs(energy.imag))
    )


def sweep(model: HypModel, fields) -> list:
    """Pointwise :func:`resonance` over a strictly increasing nonnegative
    field grid, order preserved."""
    grid = [float(x) for x in fields]
    if not grid:
        raise OutOfRange("field grid is empty")
    if grid[0] < 0.0:
        raise OutOfRange("field grid must be nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise OutOfRange("field grid must be strictly increasing")
    return [resonance(model, x) for x in grid]


# ---------------------------------------------------------------------------
# derived quantities


@dataclass(frozen=True)
class LinearTailFit:
    """Linear fit of the decay rate over a trailing window of the sweep."""

    window_fraction: float
    field_lo: float
    field_hi: float
    slope: float
    intercept: float
    r_squared: float
    n_points: int

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
    sel = [pt for pt in points if pt.field >= lo and pt.gamma > 0.0]
    if len(sel) < 8 or sel[0].field == sel[-1].field:
        return None
    x = [pt.field for pt in sel]
    y = [pt.gamma for pt in sel]
    slope, intercept = _line_fit(x, y)
    mean = math.fsum(y) / len(y)
    ss_tot = math.fsum((b - mean) ** 2 for b in y)
    if ss_tot == 0.0:
        return None
    ss_res = math.fsum((b - (slope * a + intercept)) ** 2 for a, b in zip(x, y))
    return LinearTailFit(
        window_fraction=fraction,
        field_lo=x[0],
        field_hi=x[-1],
        slope=slope,
        intercept=intercept,
        r_squared=1.0 - ss_res / ss_tot,
        n_points=len(sel),
    )


def linear_tail_fit(points) -> LinearTailFit:
    """Best linear description of the high-field decay-rate tail.

    Tries a trailing window of 30% of the swept range first and keeps it if
    its coefficient of determination reaches 0.99; otherwise the 20/40/50%
    windows are also fitted and the best one wins.  Windows need at least 8
    points with positive rate.
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
    scale p: least-squares fit of log(slope) against log(p)."""
    data = [(float(p), float(s)) for p, s in pairs]
    if len(data) < 3 or len({p for p, _ in data}) < 3:
        raise InsufficientData("need at least 3 pairs with distinct p")
    if any(p <= 0.0 for p, _ in data):
        raise OutOfRange("channel scale p must be positive")
    if any(s <= 0.0 for _, s in data):
        raise NonPositiveSlope("tail slopes must be positive")
    return _line_fit([math.log(p) for p, _ in data],
                     [math.log(s) for _, s in data])[0]


def standard_model(alpha, l: float = DEFAULT_L) -> HypModel:
    """Exact series at ``alpha`` fitted to the default continuation model."""
    return fit_model(energy_series(alpha, 4), l)
