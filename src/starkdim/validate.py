"""Dispersion-relation consistency checks.

The even-order coefficients are moments of the model's signed discontinuity
G(F) = 2 Im E(F - i0) across the cut: E_2n = -(1/pi) * integral of
G(F) F^(-2n-1) dF.  Comparing them with the series measures the internal
consistency of the resummation.  The physical rate Gamma = |G| cannot stand
in for G: where a complex pair (h1, h2) turns Im E negative at high field,
the fold adds a reflected stretch that the identity does not contain, and a
kink.  In u = ln F the integrand G(e^u) e^(-2nu) is smooth and decays at
both ends, so the trapezoid rule converges geometrically in the step
(Trefethen and Weideman, SIAM Rev. 56, 2014).  All moments share one window
and one grid, each halving of the step adds only the midpoints, and each
moment is one ``math.fsum`` over the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeffs import EnergySeries
from .errors import DomainError, IntegrationFailure, NotValid, OutOfRange
from .resum import HypModel, lower_side_energy

# integrand is negligible below this fraction of its peak
_LOWER_FLOOR = 1e-25
# truncation keeps the bounded tail below this relative contribution, and
# step halving stops once every moment changes by less than this
_TAIL_REL = 1e-10
_SCAN_STEP = 0.25
_MAX_SCAN = 4000
_MAX_HALVINGS = 6


@dataclass(frozen=True)
class DispersionEntry:
    """One moment comparison: series value against rate integral.  All
    entries of a report share one grid: ``upper_cutoff`` is its end in field
    units and ``node_count`` its rate evaluations, cutoff scans included."""

    n: int
    series_value: float
    integral_value: float
    relative_error: float
    upper_cutoff: float
    node_count: int


@dataclass(frozen=True)
class DispersionReport:
    """Moment comparisons for n = 2..4 with integration metadata."""

    alpha: float
    entries: tuple

    def __post_init__(self):
        ns = {entry.n for entry in self.entries}
        if not {2, 3, 4} <= ns:
            raise ValueError(f"report must cover n = 2..4, got {sorted(ns)}")


def _dispersion_moments(model: HypModel, ns):
    """Moment integrals for every n in ``ns``; returns (list of values, upper
    cutoff in field units, number of rate evaluations)."""
    two_n = [2.0 * n for n in ns]
    us, rates = [], []

    def sample(u):
        """Record G(e^u); return |integrand| of every moment at u."""
        us.append(u)
        rates.append(2.0 * lower_side_energy(model, math.exp(u)).imag)
        return [abs(rates[-1] * math.exp(-t * u)) for t in two_n]

    def moments(step):
        return [step * math.fsum(math.exp(-t * u) * r
                                 for u, r in zip(us, rates)) for t in two_n]

    # start at b/3, b = 2/(3 p^3): the peak of the n = 2 integrand in u,
    # which goes as F^-3 exp(-b/F) at low field
    u0 = math.log(2.0 / (9.0 * ((model.alpha - 1.0) / 2.0) ** 3))
    peak = sample(u0)
    if rates[0] <= 0.0:
        raise IntegrationFailure(
            f"rate vanishes at its expected peak (alpha={model.alpha})")
    for down in range(1, _MAX_SCAN + 1):
        g = sample(u0 - down * _SCAN_STEP)
        peak = [max(a, b) for a, b in zip(peak, g)]
        if all(a <= _LOWER_FLOOR * b for a, b in zip(g, peak)):
            break
    else:
        raise IntegrationFailure(f"no lower cutoff (alpha={model.alpha})")
    # a conservative linear-growth bound on the rate bounds the tail
    slope = 0.0
    for up in range(1, _MAX_SCAN + 1):
        u = u0 + up * _SCAN_STEP
        sample(u)
        slope = max(slope, 2.0 * abs(rates[-1]) * math.exp(-u))
        if all(slope * math.exp((1.0 - t) * u) / (t - 1.0) < _TAIL_REL * abs(m)
               for t, m in zip(two_n, moments(_SCAN_STEP))):
            break
    else:
        raise IntegrationFailure(f"no upper cutoff (alpha={model.alpha})")

    step, count, total = _SCAN_STEP, down + up, moments(_SCAN_STEP)
    for _ in range(_MAX_HALVINGS):
        step *= 0.5
        for k in range(1, 2 * count, 2):
            sample(us[down] + step * k)
        count *= 2
        refined = moments(step)
        if all(abs(r - t) <= _TAIL_REL * abs(r)
               for r, t in zip(refined, total)):
            return ([-r / math.pi for r in refined], math.exp(us[down + up]),
                    len(us))
        total = refined
    raise IntegrationFailure(
        f"trapezoid sums not settled after {_MAX_HALVINGS} halvings"
        f" (alpha={model.alpha})")


def dispersion_coefficient(model: HypModel, n: int) -> float:
    """Coefficient of field^(2n) recovered from the rate integral
    -(1/pi) * integral of G(F) / F^(2n+1) over all F > 0."""
    if not (n >= 2 and math.isfinite(n) and int(n) == n):
        raise NotValid(f"the moment integral is only valid for n >= 2, got {n}")
    return _dispersion_moments(model, (int(n),))[0][0]


def dispersion_report(model: HypModel, series: EnergySeries) -> DispersionReport:
    """Compare series coefficients against rate integrals for n = 2..4."""
    if series.order < 4:
        raise OutOfRange(
            f"series must carry coefficients through order 8 "
            f"(order >= 4), got order {series.order}")
    if abs(float(series.alpha) - model.alpha) > 1e-12:
        raise DomainError(
            f"model (alpha={model.alpha}) and series "
            f"(alpha={float(series.alpha)}) describe different dimensions")
    values, cutoff, nodes = _dispersion_moments(model, (2, 3, 4))
    entries = []
    for n, value in zip((2, 3, 4), values):
        exact = float(series.e_coeffs[n])
        entries.append(DispersionEntry(
            n=n, series_value=exact, integral_value=value,
            relative_error=abs(value - exact) / abs(exact),
            upper_cutoff=cutoff, node_count=nodes))
    return DispersionReport(alpha=model.alpha, entries=tuple(entries))
