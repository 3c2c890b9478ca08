"""Dispersion-relation consistency checks.

The even-order perturbation coefficients can be recovered from a moment
integral of the decay rate over all field strengths.  Evaluating that
integral on the resummed model and comparing against the directly
computed coefficients quantifies the internal consistency of the
resummation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coeffs import EnergySeries
from .errors import DomainError, IntegrationFailure, NotValid, OutOfRange
from .resum import HypModel, resonance

# integrand is negligible below this fraction of its peak
_LOWER_FLOOR = 1e-25
# truncation keeps the bounded tail below this relative contribution
_TAIL_REL = 1e-10
_SCAN_STEP = 0.25
_MAX_SCAN = 4000


@dataclass(frozen=True)
class DispersionEntry:
    """One moment comparison: series value against rate integral."""

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


def _rate(model: HypModel, field: float) -> float:
    return resonance(model, field).gamma


def _integrand(model: HypModel, n: int):
    def g(u: float) -> float:
        eps = math.exp(u)
        return _rate(model, eps) * math.exp(-2.0 * n * u)

    return g


def _dispersion_integral(model: HypModel, n: int):
    """Moment integral with adaptive truncation; returns
    (value, upper cutoff in field units, quadrature node count)."""
    from scipy.integrate import quad

    p = (model.alpha - 1.0) / 2.0
    # peak location of gamma(eps) * eps^{-2n-1} under the leading
    # low-field exponential exp(-b/eps) with linear prefactor
    b = 2.0 / (3.0 * p**3)
    u_pk = math.log(b / (2.0 * n - 1.0))
    g = _integrand(model, n)
    g_pk = g(u_pk)
    if g_pk <= 0.0:
        raise IntegrationFailure(
            f"integrand vanishes at its expected peak for n={n}")

    g_max = g_pk
    # scan down in log-field until exponential suppression buries the
    # integrand relative to the running peak
    u_lo = u_pk
    for _ in range(_MAX_SCAN):
        u_lo -= _SCAN_STEP
        val = g(u_lo)
        g_max = max(g_max, val)
        if val <= _LOWER_FLOOR * g_max:
            break
    else:
        raise IntegrationFailure(f"no lower cutoff found for n={n}")

    # scan up until a conservative linear-growth bound on the rate makes
    # the remaining tail negligible; trapezoid sum tracks the estimate
    u_hi = u_pk
    i_est = 0.5 * _SCAN_STEP * g_pk
    slope_cap = 0.0
    prev = g_pk
    for _ in range(_MAX_SCAN):
        u_hi += _SCAN_STEP
        val = g(u_hi)
        g_max = max(g_max, val)
        i_est += 0.5 * _SCAN_STEP * (prev + val)
        prev = val
        eps_hi = math.exp(u_hi)
        slope_cap = max(slope_cap, 2.0 * _rate(model, eps_hi) / eps_hi)
        tail = slope_cap * eps_hi ** (1.0 - 2.0 * n) / (2.0 * n - 1.0)
        if tail < _TAIL_REL * i_est:
            break
    else:
        raise IntegrationFailure(f"no upper cutoff found for n={n}")

    def run_quad(**kw):
        kw.setdefault("limit", 400)
        return quad(g, u_lo, u_hi, epsabs=_TAIL_REL * i_est, epsrel=_TAIL_REL,
                    full_output=1, **kw)

    out = run_quad()
    if len(out) > 3:
        out = run_quad(points=[u_pk], limit=800)
        if len(out) > 3:
            raise IntegrationFailure(
                f"quadrature did not converge for n={n}: {out[3]}")
    value, _, info = out[:3]
    return -value / math.pi, math.exp(u_hi), int(info["neval"])


def dispersion_coefficient(model: HypModel, n: int) -> float:
    """Coefficient of field^(2n) recovered from the rate integral
    -(1/pi) * integral of gamma(eps) / eps^(2n+1) over all eps > 0."""
    if int(n) != n or n < 2:
        raise NotValid(f"the moment integral is only valid for n >= 2, got {n}")
    value, _, _ = _dispersion_integral(model, int(n))
    return value


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
    entries = []
    for n in range(2, min(4, series.order) + 1):
        series_value = float(series.e_coeffs[n])
        integral_value, cutoff, nodes = _dispersion_integral(model, n)
        rel = abs(integral_value - series_value) / abs(series_value)
        entries.append(DispersionEntry(
            n=n, series_value=series_value, integral_value=integral_value,
            relative_error=rel, upper_cutoff=cutoff, node_count=nodes))
    return DispersionReport(alpha=model.alpha, entries=tuple(entries))
