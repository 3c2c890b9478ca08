"""Dispersion moments: the rate integral must reproduce the series."""

import copy
import hashlib
import math
import sys
import threading
from fractions import Fraction

import pytest

import starkdim.validate
from starkdim import coeffs, specfun
from starkdim import (
    DispersionEntry,
    DispersionReport,
    dispersion_coefficient,
    dispersion_report,
    energy_series,
    fit_model,
    model_coefficients,
    standard_model,
)
from starkdim.errors import (DomainError, IntegrationFailure, NotValid,
                             NumericalError, OutOfRange)
from starkdim.resum import _fitted, _kept_continuation, lower_side_rate


def entry(n, rel=0.01):
    return DispersionEntry(n=n, series_value=-1.0, integral_value=-1.0,
                           relative_error=rel, upper_cutoff=100.0,
                           node_count=200)


def test_moment_index_validation(models):
    with pytest.raises(NotValid):
        dispersion_coefficient(models[3.0], 1)
    with pytest.raises(NotValid):
        dispersion_coefficient(models[3.0], 2.5)
    for n in (float("inf"), float("nan"), 10**400):
        with pytest.raises(NotValid):
            dispersion_coefficient(models[3.0], n)


def test_moment_index_below_l_plus_one(models):
    """From n = l + 1 the integral diverges at F -> 0 (2 Im E ~ F^(2l+2)):
    NotValid, where it once ran into IntegrationFailure or OverflowError."""
    with pytest.raises(NotValid, match=r"2 <= n < l \+ 1 = 31.0, got 31"):
        dispersion_coefficient(models[3.0], 31)
    with pytest.raises(NotValid):
        dispersion_coefficient(standard_model(20.0), 31)
    with pytest.raises(NotValid):
        dispersion_coefficient(standard_model(3.0, 12.3), 14)


@pytest.mark.parametrize("alpha", [3.0, 1.5])
@pytest.mark.parametrize("n,rel", [(28, 3e-14), (29, 3e-14), (30, 2e-9)])
def test_high_moments_against_model_coefficients(models, alpha, n, rel):
    """Where the weight e^(-2nu) overflows down the lower scan (from n = 28
    at alpha = 3), the product with the vanishing rate is formed from
    logs; the model's own Taylor coefficient is the oracle."""
    value = dispersion_coefficient(models[alpha], n)
    exact = model_coefficients(models[alpha], n)[n - 1].real
    assert value == pytest.approx(exact, rel=rel)


_CLOSED_TAIL_SHORT = pytest.mark.xfail(
    strict=True, reason="at l = 60 the rate underflows where the next term of"
    " G ~ F^(2l+2) still counts, so the geometric tail closed below the"
    " lower scan's last normal rate falls short (ROADMAP item 9, step 2):"
    " off by 1.0e-10 (n = 59) and 3.7e-7 (n = 60)")


@pytest.mark.parametrize("l,n", [
    (12.3, 13), pytest.param(60.0, 59, marks=_CLOSED_TAIL_SHORT),
    pytest.param(60.0, 60, marks=_CLOSED_TAIL_SHORT), (30.0, 30)])
def test_moments_up_to_l_against_model_coefficients(l, n):
    """Every moment 2 <= n < l + 1 within 1e-12 of the model's own Taylor
    coefficient, at alpha = 3."""
    model = standard_model(3.0, l)
    exact = model_coefficients(model, n)[n - 1].real
    assert dispersion_coefficient(model, n) == pytest.approx(exact, rel=1e-12)


def test_moment_past_float_range_is_numerical_error():
    """A moment whose sums leave the float range (E_64 at alpha = 20,
    l = 60) raises NumericalError naming n, alpha and l."""
    with pytest.raises(NumericalError,
                       match=r"n=32 overflows a float \(alpha=20.0, l=60.0\)"):
        dispersion_coefficient(standard_model(20.0, 60), 32)


@pytest.mark.parametrize("n", [27, 30])
def test_moment_scan_failure_names_moment_and_stage(n):
    """At alpha = 1.01 the tiny moments n = 27..30 walk the upper-cutoff scan
    up to a field whose offset past the branch point overflows: the error
    names the moment and the scan beside that field."""
    with pytest.raises(NumericalError,
                       match=rf"upper-cutoff scan of moment n={n}: .*"
                       r"overflows a float \(alpha=1.01, field=4.826\d*e\+245\)"):
        dispersion_coefficient(standard_model(Fraction(101, 100)), n)


def test_report_input_validation(models, series_map):
    with pytest.raises(OutOfRange):
        dispersion_report(models[3.0], energy_series(3.0, 3))
    with pytest.raises(DomainError):
        dispersion_report(models[3.0], series_map[2.5])


def test_report_shape_validation():
    with pytest.raises(ValueError):
        DispersionReport(alpha=3.0, entries=(entry(2), entry(3)))
    DispersionReport(alpha=3.0, entries=(entry(2), entry(3), entry(4)))


def test_three_dimensional_report(models, series_map):
    """The resummed rate integral reproduces the exact coefficients for
    alpha = 3; explicit bounds match the contract on each moment."""
    report = dispersion_report(models[3.0], series_map[3.0])
    assert report.alpha == 3.0
    assert [e.n for e in report.entries] == [2, 3, 4]
    by_n = {e.n: e for e in report.entries}
    assert by_n[2].series_value == pytest.approx(-3555.0 / 64.0, rel=1e-12)
    limits = {2: 0.05, 3: 0.05, 4: 0.10}
    for n, e in by_n.items():
        assert e.integral_value < 0.0
        assert e.relative_error < limits[n]
        assert e.upper_cutoff > 0.0
        assert e.node_count > 0


def test_moment_matches_series_directly(models, series_map):
    value = dispersion_coefficient(models[3.0], 2)
    exact = float(series_map[3.0].e_coeffs[2])
    assert value == pytest.approx(exact, rel=0.05)


# relative errors of dispersion_report's moments n = 2, 3, 4 as measured at
# the four standard dimensions; criterion 08 allows 0.05/0.05/0.10, so this
# pin is what keeps a faster evaluation from quietly losing digits
PINNED_ERRORS = {
    3.0: (1.4e-12, 3.6e-12, 4.0e-12),
    2.5: (6.5e-8, 4.9e-13, 6.2e-12),
    2.0: (1.9e-6, 6.2e-11, 1.0e-11),
    1.5: (1.06e-5, 7.9e-10, 2.4e-12),
}


@pytest.mark.parametrize("alpha", sorted(PINNED_ERRORS))
def test_dispersion_accuracy_pinned(models, series_map, alpha):
    report = dispersion_report(models[alpha], series_map[alpha])
    for e, pinned in zip(report.entries, PINNED_ERRORS[alpha]):
        assert e.relative_error <= max(2.0 * pinned, 1e-9), e.n


@pytest.mark.parametrize("alpha", [Fraction(3), Fraction(5, 2), Fraction(2),
                                   Fraction(3, 2), Fraction(11, 10),
                                   Fraction(101, 100), Fraction(6),
                                   Fraction(20)],
                         ids=lambda a: f"{float(a):g}")
def test_dispersion_identity(monkeypatch, alpha):
    """The moments of the signed discontinuity reproduce the exact series
    to the integrator's 1e-10 tolerance, also where Im E changes sign at
    high field (alpha <= 3), and node_count is every rate evaluation made."""
    calls = []

    def counting(model, field):
        calls.append(field)
        return lower_side_rate(model, field)

    monkeypatch.setattr(starkdim.validate, "lower_side_rate", counting)
    series = energy_series(alpha, 4)
    report = dispersion_report(fit_model(series), series)
    for e in report.entries:
        assert e.relative_error <= 1e-10, e.n
        assert e.node_count == len(calls) == len(set(calls))
        assert e.upper_cutoff == max(calls)
    assert len(calls) <= 250


def traced_report(monkeypatch, alpha, l):
    """dispersion_report at (alpha, l) and the ln F of every node it
    evaluated, in order."""
    us = []

    def tracing(model, field):
        us.append(math.log(field))
        return lower_side_rate(model, field)

    monkeypatch.setattr(starkdim.validate, "lower_side_rate", tracing)
    series = energy_series(alpha, 4)
    return dispersion_report(fit_model(series, l), series), us


def stretched(u, u0):
    """The s of a node at u = ln F, inverting u = u0 + (s + e^s - 1)/2 by
    Newton's method: s + e^s is convex and increasing, so from the start
    used here every step lands on or above the root and then falls to it."""
    c = 2.0 * (u - u0) + 1.0
    s = math.log(c) if c > 1.0 else c - 1.0
    for _ in range(60):
        s -= (s + math.exp(s) - c) / (1.0 + math.exp(s))
    return s


@pytest.mark.parametrize("l", [12.3, 30.0, 90.0])
@pytest.mark.parametrize("alpha", [Fraction(101, 100), Fraction(3, 2),
                                   Fraction(3), Fraction(20)], ids=str)
def test_integrals_match_wide_reference(alpha, l):
    """Against a trapezoid in u = ln F at step 1/64 over [u0 - 12, u0 + 40],
    which leaves out nothing the moments can resolve, each moment is within
    5e-12 at l <= 30 and 2e-11 at l = 90: the truncation of the upper tail
    counts too, not just the step."""
    series = energy_series(alpha, 4)
    model = fit_model(series, l)
    report = dispersion_report(model, series)
    u0 = math.log(2.0 / (9.0 * ((float(alpha) - 1.0) / 2.0) ** 3))
    step = 1.0 / 64.0
    nodes = [u0 - 12.0 + k * step for k in range(52 * 64 + 1)]
    rates = [lower_side_rate(model, math.exp(u)) for u in nodes]
    for e in report.entries:
        wide = -step / math.pi * math.fsum(
            math.exp(-2.0 * e.n * u) * g for u, g in zip(nodes, rates))
        assert e.integral_value == pytest.approx(
            wide, rel=5e-12 if l <= 30.0 else 2e-11), e.n


# (alpha, l): (node_count, halvings) of dispersion_report; one halving
# settles the sums at l = 30, two at alpha = 20, l = 60, where the first
# change is too large for its square to pass
HALVINGS = {
    (Fraction(3), 30.0): (37, 1),
    (Fraction(5, 2), 30.0): (37, 1),
    (Fraction(2), 30.0): (37, 1),
    (Fraction(3, 2), 30.0): (37, 1),
    (Fraction(20), 60.0): (81, 2),
}


@pytest.mark.parametrize("alpha, l", sorted(HALVINGS),
                         ids=lambda v: f"{float(v):g}")
def test_halvings_taken(monkeypatch, alpha, l):
    """node_count is the scan's nodes, a 0.5 grid in s from the first node
    at s = 0, plus the midpoints each halving adds."""
    report, us = traced_report(monkeypatch, alpha, l)
    nodes, halvings = HALVINGS[(alpha, l)]
    assert report.entries[0].node_count == len(us) == nodes
    grid = [stretched(u, us[0]) / 0.5 for u in us]
    scan = sum(abs(k - round(k)) < 1e-9 for k in grid)
    assert nodes == scan + (scan - 1) * (2**halvings - 1)


def test_second_halving_unchanged():
    """Where the second halving is taken (alpha = 20, l = 60), the report
    keeps its bits.  Re-pinned when the reflected series' reach moved from
    x = 11 to x = 21 at l = 60: the integral values of n = 2, 3 and 4 moved
    by 2.0e-15, 3.8e-15 and 4.8e-15 relative, each toward the same nodes'
    sum with 60-digit rates (worst 1.2e-14 before, 8.7e-15 after); the
    node count and upper cutoff kept their bits."""
    series = energy_series(Fraction(20), 4)
    report = dispersion_report(fit_model(series, 60.0), series)
    assert report.entries[0].node_count == 81
    assert hashlib.sha256(repr(report).encode()).hexdigest() == (
        "f7fd8f562378ffbe31e7cfe513d2f1a8e7fa559dac65e8d46edefb9986d43da4")


# every IntegrationFailure of the moment integrator, each forced at alpha = 3
# by module settings: (settings, message)
INTEGRATION_FAILURES = {
    "rate vanishes": ({"lower_side_rate": lambda model, field: 0.0},
                      "rate vanishes at its expected peak (alpha=3.0)"),
    "no lower cutoff": ({"_MAX_SCAN": 1}, "no lower cutoff (alpha=3.0)"),
    # a rate growing as F^10 leaves no bounded tail; 9 steps keep F^10
    # finite, and a rate that vanishes below the peak at F = 2/9 ends the
    # lower scan at its first step
    "no upper cutoff": ({"lower_side_rate": lambda model, field:
                         field**10 if field > 0.2 else 0.0,
                         "_MAX_SCAN": 9}, "no upper cutoff (alpha=3.0)"),
    # with no tail test to pass, the upper scan walks e^u to the end of the
    # float range, and stops there before it takes the rate
    "no upper cutoff in the float range": (
        {"lower_side_rate": lambda model, field: math.exp(-1.0 / field),
         "_TAIL_REL": 0.0}, "no upper cutoff (alpha=3.0)"),
    "sums not settled": ({"_MAX_HALVINGS": 0},
                         "trapezoid sums not settled after 0 halvings"
                         " (alpha=3.0)"),
}


@pytest.mark.parametrize("case", sorted(INTEGRATION_FAILURES))
def test_integration_failure_names_alpha(monkeypatch, models, series_map,
                                         case):
    settings, message = INTEGRATION_FAILURES[case]
    for name, value in settings.items():
        monkeypatch.setattr(starkdim.validate, name, value)
    with pytest.raises(IntegrationFailure) as info:
        dispersion_report(models[3.0], series_map[3.0])
    assert str(info.value) == message


def test_reflected_route_work_per_report(monkeypatch):
    """The reflected series behind Im F up to x = 11, in one
    dispersion_report at alpha = 3: its terms, counted as the anchors' kept
    Taylor coefficients plus every term summed (the defining series at
    z <= 1/2 and for the first anchor included), stay at most 1,500 over 19
    evaluations, and the sums at the evaluated z themselves average at most
    40 terms.  Building the anchors, once, is in the 1,500 but not in that
    average.  One Pfaff series at z = v/x took 3,021 terms there."""
    series = energy_series(Fraction(3), 4)
    model = fit_model(series)
    hyp = model._continuation[1]
    mu = hyp.c - hyp.a - hyp.b
    route = {mu + 1.0, mu + 2.0}  # S and S' = (AB/C) 2F1(A+1, ...)
    summed, evaluations = [], []
    series_sum = specfun._Series.__call__
    taylor_sum = specfun._Taylor.__call__
    reflected = specfun._AnchoredSeries.__call__

    def count_series(self, w):
        if self.c in route:
            fresh = specfun._Series(self.a, self.b, self.c)
            series_sum(fresh, w)
            summed.append(len(fresh.rows))
        return series_sum(self, w)

    def count_taylor(self, h, derivative=0):
        fresh = copy.copy(self)
        fresh.coeffs = self.coeffs[:2]
        taylor_sum(fresh, h, derivative)
        summed.append(len(fresh.coeffs) - derivative)
        return taylor_sum(self, h, derivative)

    def count_evaluations(self, z):
        value = reflected(self, z)
        evaluations.append(summed[-1])  # the sum at z, after any anchor build
        return value

    monkeypatch.setattr(specfun._Series, "__call__", count_series)
    monkeypatch.setattr(specfun._Taylor, "__call__", count_taylor)
    monkeypatch.setattr(specfun._AnchoredSeries, "__call__", count_evaluations)
    dispersion_report(model, series)
    kept = sum(len(t.coeffs) for t in hyp._reflection[-1].anchors)
    assert len(evaluations) == 19
    assert kept + sum(summed) <= 1500
    assert sum(evaluations) <= 40 * len(evaluations)


# sha256 of repr(dispersion_report(fit_model(s), s)), s = energy_series(alpha,
# 4): a change to the numerics of the rate path moves these
REPORT_DIGESTS = {
    Fraction(3):
        "7585f07fa6f389764ed55e737d3a06fdc92446b9099d2839d80e0fdc584aa899",
    Fraction(5, 2):
        "0863a2efa564dd9ef12d3d5e00332a944bcfdf249006b983fc87fd0eb3bf9997",
    Fraction(2):
        "cbb158d4290cd6b851cef3bb3b243f1bf4a968c64e244274487da6204aafbd1a",
    Fraction(3, 2):
        "3accf8bc15d92f7c4639e22f07504c566c4a3baf7df3c4ef866f5ce60dd594c8",
    Fraction(7, 3):
        "ea55934eceeaf9779c730d70bba6a127aacaa743a9e7cefadf2aee85c0c560c4",
    Fraction(11, 5):
        "0341fa292dc0ca2a2d32dd8c55d002e7b75b22390dffe2f81d5635bd22f423b4",
    Fraction(101, 100):
        "374fe7d932a7a0fc9b96727ec643b4a620138e53b3be9e429333ae284056c2a3",
    Fraction(6):
        "4d6c103273d13cd19d2a21fb37d74400bdf7a776a6ef0f1ea31e52d5fa36529e",
    Fraction(20):
        "bdd993aeb9d0c58a0d2bc04aeca71891a937c9337b1cbf09fc505c7e084e84a9",
}


@pytest.mark.parametrize("alpha", sorted(REPORT_DIGESTS), ids=str)
def test_report_digest_pinned(alpha):
    series = energy_series(alpha, 4)
    report = dispersion_report(fit_model(series), series)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == (
        REPORT_DIGESTS[alpha])


# kept series tables and fits (see the coeffs and resum module docstrings)


def test_repeated_check_skips_the_engine_and_the_fit(monkeypatch,
                                                     empty_tables):
    """A second series, fit and report at one alpha runs neither the series
    engine nor the closed-form fit, and reports the same bits."""
    runs = []
    engine = coeffs._logderiv_run
    monkeypatch.setattr(coeffs, "_logderiv_run",
                        lambda *args: runs.append(args) or engine(*args))
    work, reports = [], []
    for _ in range(2):
        runs.clear()
        fits = _fitted.cache_info().misses
        series = energy_series(Fraction(7, 3), 4)
        reports.append(repr(dispersion_report(fit_model(series), series)))
        work.append((len(runs), _fitted.cache_info().misses - fits))
    assert work == [(1, 1), (0, 0)]
    assert reports[0] == reports[1]


def test_threads_sharing_the_tables_keep_every_value(empty_tables):
    """Four threads with a short switch interval make the series, fit and
    report at three dimensions from emptied tables: each gets the bits
    (the reprs) of one thread working alone."""
    def check():
        values = []
        for alpha in (Fraction(3), Fraction(7, 3), 2.5):
            series = energy_series(alpha, 4)
            model = fit_model(series)
            values.append((repr(series), repr(model),
                           repr(dispersion_report(model, series))))
        return values

    expected = check()
    empty_tables()
    _kept_continuation.cache_clear()
    results = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=lambda: results.append(check()))
                   for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [expected] * 4
