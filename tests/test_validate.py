"""Dispersion moments: the rate integral must reproduce the series."""

import copy
import hashlib
import math
from fractions import Fraction

import pytest

import starkdim.validate
from starkdim import specfun
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
from starkdim.resum import lower_side_rate


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


@pytest.mark.xfail(strict=True, reason="the lower scan stops where"
                   " lower_side_rate goes subnormal and then 0.0 while the"
                   " integrand, decaying only as F^(2(l+1-n)), still counts"
                   " (ROADMAP item 9): off by 1.29e-7 (l = 12.3, n = 13),"
                   " 6.2e-8 (l = 60, n = 59), 3.3e-4 (l = 60, n = 60) and"
                   " 1.34e-9 (l = 30, n = 30).  n = 29 at l = 30 meets"
                   " subnormal rates too yet stays within 7e-15, so the fix"
                   " cannot simply raise at the first subnormal rate")
@pytest.mark.parametrize("l,n", [(12.3, 13), (60.0, 59), (60.0, 60),
                                 (30.0, 30)])
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
                       r"overflows a float \(alpha=1.01, field=6.0\d*e\+154\)"):
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


@pytest.mark.parametrize("l", [12.3, 30.0, 90.0])
@pytest.mark.parametrize("alpha", [Fraction(101, 100), Fraction(3, 2),
                                   Fraction(3), Fraction(20)], ids=str)
def test_integrals_match_finer_step(monkeypatch, alpha, l):
    """The halving stops once a change d between two levels has d^2 within
    the tolerance, as the error squares with each halving: the accepted
    moments are the trapezoid sums of their window at step 0.25/32 to
    2e-11."""
    report, us = traced_report(monkeypatch, alpha, l)
    model = fit_model(energy_series(alpha, 4), l)
    step = 0.25 / 32
    lo, hi = min(us), max(us)
    nodes = [lo + k * step for k in range(round((hi - lo) / step) + 1)]
    rates = [lower_side_rate(model, math.exp(u)) for u in nodes]
    for e in report.entries:
        fine = -step / math.pi * math.fsum(
            math.exp(-2.0 * e.n * u) * g for u, g in zip(nodes, rates))
        assert e.integral_value == pytest.approx(fine, rel=2e-11), e.n


# (alpha, l): (node_count, halvings) of dispersion_report; one halving
# settles the sums at l = 30, two at alpha = 20, l = 60, where the first
# change is too large for its square to pass
HALVINGS = {
    (Fraction(3), 30.0): (89, 1),
    (Fraction(5, 2), 30.0): (91, 1),
    (Fraction(2), 30.0): (93, 1),
    (Fraction(3, 2), 30.0): (97, 1),
    (Fraction(20), 60.0): (177, 2),
}


@pytest.mark.parametrize("alpha, l", sorted(HALVINGS),
                         ids=lambda v: f"{float(v):g}")
def test_halvings_taken(monkeypatch, alpha, l):
    """node_count is the scan's nodes, a 0.25 grid in ln F, plus the
    midpoints each halving adds."""
    report, us = traced_report(monkeypatch, alpha, l)
    nodes, halvings = HALVINGS[(alpha, l)]
    assert report.entries[0].node_count == len(us) == nodes
    grid = [abs(u - us[0]) / 0.25 for u in us]
    scan = sum(abs(k - round(k)) < 1e-9 for k in grid)
    assert nodes == scan + (scan - 1) * (2**halvings - 1)


def test_second_halving_unchanged():
    """Where the second halving is still taken, the report keeps the bits
    it had when every halving had to change the sums by under 1e-10."""
    series = energy_series(Fraction(20), 4)
    report = dispersion_report(fit_model(series, 60.0), series)
    assert report.entries[0].node_count == 177
    assert hashlib.sha256(repr(report).encode()).hexdigest() == (
        "973f01472f230919aa34f78d03c063b0701d0a8d363fadb6a92a8a83f3596223")


# every IntegrationFailure of the moment integrator, each forced at alpha = 3
# by module settings: (settings, message)
INTEGRATION_FAILURES = {
    "rate vanishes": ({"lower_side_rate": lambda model, field: 0.0},
                      "rate vanishes at its expected peak (alpha=3.0)"),
    "no lower cutoff": ({"_MAX_SCAN": 1}, "no lower cutoff (alpha=3.0)"),
    # a rate growing as F^10 leaves no bounded tail; 200 steps keep F finite
    "no upper cutoff": ({"lower_side_rate": lambda model, field: field**10,
                         "_MAX_SCAN": 200}, "no upper cutoff (alpha=3.0)"),
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
    route = {hyp._mu + 1.0, hyp._mu + 2.0}  # S and S' = (AB/C) 2F1(A+1, ...)
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
        "774aa96c3905fbeeacbaf487e2c0e45e7251cc116e760365b51d1a95ea6cdae9",
    Fraction(5, 2):
        "6d3bdefcc6191d8f93f71476618a99044e6c9fda013cc3a41b6433af865d38ee",
    Fraction(2):
        "430bb84af150328332a70d40d67cf3c38d22e318fa30121c88f3d1ba7c1a45f2",
    Fraction(3, 2):
        "c954dfc28ac6cba4f41b6f144c606972e7ee06255a375cd2114ef89d028f9787",
    Fraction(7, 3):
        "f9bac456a82ff2a453b25f519b2992cef25910c775f071f24cd16ed2aaf2daf4",
    Fraction(11, 5):
        "237b13a1cd7e2a45d86e960ce7b1f7a7e1e481939c12533f7dcd3423de30b293",
    Fraction(101, 100):
        "c6c174cca1ceee176501ca3ae5f3486049a08821216bf093cd96861a65cfdb3a",
    Fraction(6):
        "9499ee923e3032dfe66621753440b7ef611a78d254b8ca324b3b1e52053cbb57",
    Fraction(20):
        "fd4c83b0e46c8551367a560c4fa3c2dd49b28971df8ca7bdd4a869909099b52e",
}


@pytest.mark.parametrize("alpha", sorted(REPORT_DIGESTS), ids=str)
def test_report_digest_pinned(alpha):
    series = energy_series(alpha, 4)
    report = dispersion_report(fit_model(series), series)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == (
        REPORT_DIGESTS[alpha])
