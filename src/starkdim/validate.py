"""Dispersion-relation consistency checks.

The even-order coefficients are moments of the model's signed discontinuity
G(F) = 2 Im E(F - i0) across the cut: E_2n = -(1/pi) * integral of
G(F) F^(-2n-1) dF.  Comparing them with the series measures the internal
consistency of the resummation.  The physical rate Gamma = |G| cannot stand
in for G: where a complex pair (h1, h2) turns Im E negative at high field,
the fold adds a reflected stretch that the identity does not contain, and a
kink.  In u = ln F the integrand G(e^u) e^(-2nu) is smooth and decays at
both ends, but at high field only as a power of F: as e^(-3u) times the
rate's growth at n = 2.  It is therefore integrated in a stretched variable
s, with u = u0 + (s + e^s - 1)/2 and du/ds = (1 + e^s)/2, about
u0 = ln(b/3), b = 2/(3 p^3) the exponent of the rate's e^(-b/F) at low
field: u0 is the scans' start and the map's centre.  It is not the
integrand's peak: with the rate's F^-p prefactor the n = 2 integrand goes
as F^-(p+4) e^(-b/F), and its peak lies 0.71, 2.00 and 2.83 below u0 in u
at alpha = 3, 20 and 50; the lower scan runs past it either way.  Below u0
the map tends to slope 1/2, so the steep e^(-b/F) side keeps a fine step
in u.  Above u0 the step in u grows exponentially, so the tail decays
double-exponentially in s and the trapezoid rule converges geometrically in
the step there too (Trefethen and Weideman, SIAM Rev. 56, 2014).  All
moments share one window and one grid, each halving of the step adds only
the midpoints, and each moment is one ``math.fsum`` over its weighted
integrand values, kept per node.

The scans run from s = 0 at step 0.5.  The lower one stops once every
moment's integrand is below 1e-25 of its peak, or at the first rate that is
subnormal or 0.0, whose node it drops.  The upper one stops once a
linear-growth bound on the rate, integrated in u, puts every moment's tail
below 1e-10 of its sum.  ``IntegrationFailure`` is raised where the rate
is not positive at u0, where either scan runs out of steps, where e^u would
leave the float range before the tail is bounded, and where the sums do not
settle.

Near n = l the integrand decays downward only as F^(2(l+1-n)), so it still
counts where the rate goes subnormal.  Below the lowest node s_L, G ~
F^(2l+2) and u has slope 1/2 in s, so the nodes below continue as a
geometric series of ratio e^(-(l+1-n)h) in the step h, and each level adds
its sum in closed form.  Where the lower scan stopped at its floor, that
sum is below one ulp of the moment.  Against the model's own
Taylor coefficient at alpha = 3 that leaves 1.3e-14 at (l, n) = (12.3, 13)
and 7.8e-15 at (30, 30), where the scan alone left 1.3e-7 and 1.3e-9.  At
l = 60 the rate underflows where G's next term still counts: 1.0e-10 at
n = 59 and 3.7e-7 at n = 60.

The error falls as exp(-c/h) in the step h, so halving the step squares it.
A relative change d between two levels is then about the coarser level's
error, and the finer level's is about d^2 (Bailey's estimate, as in mpmath's
``QuadratureRule.estimate_error``).  The halving stops at the first level
where every moment has d^2 <= 1e-10.  At l = 30 that is the first halving:
37 rate evaluations per report for alpha from 1.01 to 3, 39-43 for alpha
from 5 to 20.  A second halving follows where the first change is too
large (81 evaluations at alpha = 20, l = 60).  Against a trapezoid in u at
step 1/64 over [u0 - 12, u0 + 40], the moments agree within 1.8e-12 at
l <= 30 and 1.0e-11 at l = 90.  The upper cutoff, e^u at the last scan
node, lies far out in the tail: 1.39e4 at alpha = 3, where a 0.25 grid in
u stops at 402, and the tail such a grid cuts off moves the moments by up
to 6.8e-11 (alpha = 11/10, l = 30).

Each node evaluates G alone (``resum.lower_side_rate``), never Re E: up to
x = 1 + h3 (F/4)^2 = 1 + max(10, 2H), H = max(1, min(l/6, 15)) the Re 2F1
hand-over (x = 11 at l <= 30, 21 at l = 60), it sums only the DLMF 15.2.3
reflected series for Im 2F1, and beyond it the 1/w connection, whose
imaginary part stands.
Each scan step decides on the last node, so nodes are scalar rates; their
per-moment bookkeeping runs in plain loops, each column's append bound
once per report.

The moments depend on the model and the orders n alone, so they are kept,
as the series tables and fits are: the 16 last results, keyed by the model
record and the tuple of orders (equal models share an entry).  A repeated
``dispersion_report`` or ``dispersion_coefficient`` evaluates no rate; a
report rebuilds its entries from the kept values, and ``node_count``
reports the evaluations that produced them.  An error is never kept, so a
failed integration raises again on every call.  The key of each kept
result holds its model, and with it the model's continuation, alive.  Two
threads that miss at once each integrate and get equal values, one of
which is kept.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from ._record import Record
from .coeffs import EnergySeries
from .errors import (DomainError, IntegrationFailure, NotValid, NumericalError,
                     OutOfRange)
from .resum import HypModel, lower_side_rate

# integrand is negligible below this fraction of its peak
_LOWER_FLOOR = 1e-25
# truncation keeps the bounded tail below this relative contribution, and
# step halving stops once every moment's relative change d has d^2 below
# it: the error squares as the step halves, so the finer sum is then good
# to about d^2
_TAIL_REL = 1e-10
# scan step in s, where u = ln F = u0 + (s + e^s - 1)/2
_SCAN_STEP = 0.5
# the upper scan raises before e^u would leave the float range
_MAX_LOG_FIELD = math.log(sys.float_info.max)
_MAX_SCAN = 4000
_MAX_HALVINGS = 6


class DispersionEntry(Record):
    """One moment comparison: series value against rate integral.  All
    entries of a report share one grid: ``upper_cutoff`` is its end in field
    units and ``node_count`` its rate evaluations, cutoff scans included,
    made once for the kept moments (see the module docstring)."""

    def __init__(self, n: int, series_value: float, integral_value: float,
                 relative_error: float, upper_cutoff: float, node_count: int):
        d = self.__dict__
        d["n"], d["series_value"], d["integral_value"] = (
            n, series_value, integral_value)
        d["relative_error"], d["upper_cutoff"], d["node_count"] = (
            relative_error, upper_cutoff, node_count)


class DispersionReport(Record):
    """Moment comparisons for n = 2..4 with integration metadata."""

    def __init__(self, alpha: float, entries: tuple):
        ns = {entry.n for entry in entries}
        if not {2, 3, 4} <= ns:
            raise ValueError(f"report must cover n = 2..4, got {sorted(ns)}")
        d = self.__dict__
        d["alpha"], d["entries"] = alpha, entries


@lru_cache(maxsize=16)
def _dispersion_moments(model: HypModel, ns: tuple):
    """Moment integrals for every n in the tuple ``ns``; returns (tuple of
    values, upper cutoff in field units, number of rate evaluations).  Kept
    (see the module docstring): callers share the result."""
    two_n = [2.0 * n for n in ns]
    # ss holds the nodes in s; columns[i] the integrand of moment ns[i] there
    ss, columns = [], [[] for _ in ns]
    appends = [(t, column.append) for t, column in zip(two_n, columns)]
    exp, record = math.exp, ss.append
    # start the scans, and centre the map, at u0 = ln(b/3), b = 2/(3 p^3)
    # the exponent of the rate's exp(-b/F) at low field; the n = 2
    # integrand peaks below u0 (see the module docstring)
    u0 = math.log(2.0 / (9.0 * ((model.alpha - 1.0) / 2.0) ** 3))

    def at(s):
        return u0 + 0.5 * (s + exp(s) - 1.0)

    def sample(s):
        """Record the node s and every moment's integrand G(e^u) e^(-2nu)
        du/ds at u = at(s); return G(e^u)."""
        record(s)
        u = at(s)
        rate = lower_side_rate(model, exp(u))
        weighted = 0.5 * (1.0 + exp(s)) * rate
        for t, append in appends:
            try:
                append(exp(-t * u) * weighted)
            except OverflowError:
                # far down the lower scan e^(-tu) leaves the float range
                # before the vanishing rate scales it: add the logs instead
                append(math.copysign(exp(math.log(abs(weighted)) - t * u),
                                     rate) if rate else 0.0)
        return rate

    def moments(step):
        # below the lowest node s_L, G ~ F^(2l+2) and u has slope 1/2 in s:
        # the nodes below continue each moment as a geometric series of
        # ratio q = e^(-(l+1-n) step), which adds column[s_L] q/(1-q); below
        # a floor-stopped scan that is under one ulp of the sum
        return [step * (math.fsum(column)
                        + column[down] / math.expm1((model.l + 1 - n) * step))
                for n, column in zip(ns, columns)]

    if sample(0.0) <= 0.0:
        raise IntegrationFailure(
            f"rate vanishes at its expected peak (alpha={model.alpha})")
    peak = [abs(column[-1]) for column in columns]
    for down in range(1, _MAX_SCAN + 1):
        if abs(sample(-down * _SCAN_STEP)) < sys.float_info.min:
            # a subnormal or vanished rate has lost its digits: drop the
            # node and close the moments below the last one
            ss.pop()
            for column in columns:
                column.pop()
            down -= 1
            break
        low = True
        for i, column in enumerate(columns):
            g = abs(column[-1])
            if g > peak[i]:
                peak[i] = g
            low = low and g <= _LOWER_FLOOR * peak[i]
        if low:
            break
    else:
        raise IntegrationFailure(f"no lower cutoff (alpha={model.alpha})")
    # a conservative linear-growth bound on the rate bounds the tail
    slope = 0.0
    for up in range(1, _MAX_SCAN + 1):
        s = up * _SCAN_STEP
        u = at(s)
        if u > _MAX_LOG_FIELD:  # e^u would leave the float range
            raise IntegrationFailure(f"no upper cutoff (alpha={model.alpha})")
        try:
            rate = sample(s)
        except NumericalError as exc:  # a tiny moment walks u far up
            raise type(exc)(f"upper-cutoff scan of moment n="
                            f"{', '.join(map(str, ns))}: {exc}") from exc
        slope = max(slope, 2.0 * abs(rate) * exp(-u))
        # each moment summed only when its test is reached: the scan's
        # early steps fail on the first, and the scan ends once all pass
        # (a loop: all() over a generator per step took about a tenth of
        # this function's own time)
        for t, column in zip(two_n, columns):
            if not (slope * exp((1.0 - t) * u) / (t - 1.0)
                    < _TAIL_REL * abs(_SCAN_STEP * math.fsum(column))):
                break
        else:
            break
    else:
        raise IntegrationFailure(f"no upper cutoff (alpha={model.alpha})")

    step, count, total = _SCAN_STEP, down + up, moments(_SCAN_STEP)
    for _ in range(_MAX_HALVINGS):
        step *= 0.5
        lowest = ss[down]
        for k in range(1, 2 * count, 2):
            sample(lowest + step * k)
        count *= 2
        refined = moments(step)
        if all(abs(r - t) <= math.sqrt(_TAIL_REL) * abs(r)
               for r, t in zip(refined, total)):
            return (tuple(-r / math.pi for r in refined),
                    math.exp(at(ss[down + up])), len(ss))
        total = refined
    raise IntegrationFailure(
        f"trapezoid sums not settled after {_MAX_HALVINGS} halvings"
        f" (alpha={model.alpha})")


def dispersion_coefficient(model: HypModel, n: int) -> float:
    """Coefficient of field^(2n) recovered from the rate integral
    -(1/pi) * integral of G(F) / F^(2n+1) over all F > 0.

    Public as the one-moment form of the dispersion identity, for integer
    2 <= n < l + 1: :func:`dispersion_report` (and the CLI) covers n = 2..4
    only.  Both run the same integrator, so this adds no second code path.
    From n = l + 1 the integral diverges at F -> 0, where G vanishes only as
    F^(2l+2) (the v^l factor of DLMF 15.2.3), and ``NotValid`` is raised."""
    # compared, never converted: an int past the float range must not
    # escape as OverflowError
    if not (2 <= n < model.l + 1 and n <= sys.float_info.max
            and int(n) == n):
        raise NotValid("the moment integral is only valid for integer"
                       f" 2 <= n < l + 1 = {model.l + 1}, got {n}")
    try:
        return _dispersion_moments(model, (int(n),))[0][0]
    except OverflowError:
        raise NumericalError(f"moment integral n={n} overflows a float"
                             f" (alpha={model.alpha}, l={model.l})") from None


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
