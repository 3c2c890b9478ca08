"""Complex Gamma and Gauss 2F1 against mpmath oracles and exact identities."""

import cmath
import functools
import math
import random
import re
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starkdim.resum
from starkdim import (
    STANDARD_SWEEP_RANGES,
    complex_gamma,
    dispersion_report,
    energy_series,
    fit_model,
    gauss_2f1,
    standard_model,
    sweep,
)
from starkdim import specfun
from starkdim.cli import run
from starkdim.errors import (
    NonConvergent,
    NumericalError,
    OnBranchCut,
    ParameterPole,
    PoleError,
)
from starkdim.specfun import Hyp2F1, _rgamma

mp.mp.dps = 30


def ref2f1(a, b, c, w):
    return complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpc(w)))


# ---------------------------------------------------------------------------
# Gamma


def test_gamma_against_mpmath_grid():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(300):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(z.imag) < 1e-3 and z.real <= 0:
            continue
        got = complex_gamma(z)
        ref = complex(mp.gamma(mp.mpc(z.real, z.imag)))
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst < 1e-12


def test_gamma_known_values():
    assert complex_gamma(5) == pytest.approx(24.0, rel=1e-13)
    assert complex_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert complex_gamma(3.5) == pytest.approx(
        15 * math.sqrt(math.pi) / 8, rel=1e-13
    )


def test_gamma_overflow_raises():
    """Gamma(142) = 141! is about 1.9e243; from Re z ~ 142.58 the Lanczos
    power t^(z - 1/2) overflows before exp(-t) scales it back, leaving a
    NaN or infinite product up to ~ 142.73, where the power itself raises.
    Gamma raises either way, and so does 1/Gamma."""
    assert complex_gamma(142.0).real == pytest.approx(
        float(mp.factorial(141)), rel=1e-12)
    for z in (142.6, 142.6 + 1j, 200.0):
        with pytest.raises(NumericalError, match=re.escape(
                f"gamma overflows a float at z = {complex(z)}")):
            complex_gamma(z)
    with pytest.raises(NumericalError, match="gamma overflows a float"):
        _rgamma(142.6)


def test_gamma_poles_raise():
    for z in (0, -1, -2, -7):
        with pytest.raises(PoleError):
            complex_gamma(z)


@given(
    x=st.floats(min_value=0.1, max_value=20),
    y=st.floats(min_value=0.01, max_value=20),
    sign=st.sampled_from((-1.0, 1.0)),
)
@settings(max_examples=40, deadline=None)
def test_gamma_reflection_identity(x, y, sign):
    # imaginary part bounded away from zero keeps 1 - z off the pole lattice
    z = complex(x, sign * y)
    lhs = complex_gamma(z) * complex_gamma(1 - z)
    rhs = cmath.pi / cmath.sin(cmath.pi * z)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_reciprocal_gamma_at_subnormal_argument():
    """Gamma(z) overflows to inf - inf j at a subnormal z; 1/Gamma(z) ~ z
    still holds there, so a 2F1 with such a parameter stays finite."""
    z = 5e-324 + 5e-324j
    assert not cmath.isfinite(complex_gamma(z))
    assert _rgamma(z) == pytest.approx(z, rel=1e-15, abs=0.0)
    assert abs(gauss_2f1(1j, z, 1, 0.75) - 1.0) <= 1e-14


def test_digamma_against_mpmath(models):
    """40-digit oracle below Re z = 10 (recurrence), above it (asymptotic
    series alone) and at the log connection's arguments h + 30 for the
    standard models' upper parameters."""
    rng = random.Random(5)
    points = [complex(rng.uniform(-5, 60), rng.uniform(-20, 20))
              for _ in range(500)]
    points += [complex(x) for x in (0.5, 1.0, 2.0, 9.99, 10.0, -0.5, -4.5)]
    points += [h + 30 for m in models.values() for h in (m.h1, m.h2)]
    worst = 0.0
    with mp.workdps(40):
        for z in points:
            ref = complex(mp.digamma(mp.mpc(z.real, z.imag)))
            worst = max(worst, abs(specfun.digamma(z) - ref) / abs(ref))
    assert worst <= 4e-15
    for z in (0, -3):
        with pytest.raises(PoleError):
            specfun.digamma(z)


@pytest.mark.parametrize("x", [-1e3, -1e6])
def test_digamma_far_left_against_mpmath(x):
    """Left of Re z = 0 the reflection (DLMF 5.5.4) takes the place of
    -Re z recurrence steps: 40-digit oracle within 4e-16, each call in
    under 20 ms where the recurrence took 0.27 s at Re z = -1e6."""
    with mp.workdps(40):
        for y in (0.0, 0.3, -2.0, 40.0):
            z = complex(x + 0.37, y)
            start = time.perf_counter()
            got = specfun.digamma(z)
            elapsed = time.perf_counter() - start
            ref = complex(mp.digamma(mp.mpc(z.real, z.imag)))
            assert abs(got - ref) <= 4e-16 * abs(ref), z
            assert elapsed < 0.02, z


def test_log_connection_far_left_is_numerical_error():
    """The log connection's digamma(a) at Re a = -1e8 returns at once, and
    the connection's Gamma overflow surfaces as NumericalError; the next
    region in reach, the defining series at |w| = 0.7, then gives the value,
    within 1e-12 of 30-digit mpmath."""
    a = -1e8 + 0.5j
    start = time.perf_counter()
    with pytest.raises(NumericalError):
        Hyp2F1(a, 1, a + 1)._pfaff._inf_route
    got = gauss_2f1(a, 1, a + 1, 0.7)
    assert time.perf_counter() - start < 0.5
    ref = complex(mp.hyp2f1(mp.mpc(a), 1, mp.mpc(a + 1), 0.7))
    assert abs(got - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("c", [100.5, 120.5])
def test_2f1_not_finite_is_numerical_error(c):
    """Where the 1 - 1/w connection's first Gamma product,
    Gamma(c) Gamma(c - a - b) / (Gamma(c - b) Gamma(c - a)), overflows and
    its value is NaN, gauss_2f1 raises NumericalError naming a, b, c and w;
    mpmath gives 1.00335 at c = 100.5 and 1.00279 at c = 120.5."""
    with pytest.raises(NumericalError) as info:
        gauss_2f1(0.5, 0.7, c, 0.95)
    assert str(info.value) == (
        f"2F1 is not finite at a=0.5, b=0.7, c={c}, w=0.95")
    assert 1.002 < ref2f1(0.5, 0.7, c, 0.95).real < 1.004


# ---------------------------------------------------------------------------
# 2F1 regions vs mpmath

REGION_CASES = [
    # direct series
    ((0.3, 1.2, 2.7), complex(0.4, 0.2)),
    ((0.5 + 0.3j, 1.5 - 0.2j, 2.2 + 0.1j), complex(-0.5, 0.6)),
    # pfaff map
    ((0.7, 1.1, 2.9), complex(-6.0, 0.5)),
    ((0.4 + 0.2j, 2.1, 3.3 - 0.4j), complex(-3.0, -2.0)),
    # near-unit, generic exponent
    ((0.3, 0.9, 4.75), complex(0.8, 0.05)),
    ((0.25 + 0.5j, 1.3, 2.9 + 0.25j), complex(1.1, 0.3)),
    # near-unit, integer exponent: logarithmic connection
    ((0.6, 0.8, 0.6 + 0.8 + 3.0), complex(0.9, 0.1)),
    ((0.5 + 0.2j, 0.5 - 0.2j, 6.0), complex(1.2, 0.2)),
    ((0.58 + 0.18j, 0.58 - 0.18j, 1.16 + 30.0), complex(1.3, 0.4)),
    ((0.7, 1.3, 2.0), complex(0.85, 0.1)),
    ((1.2, 1.8, 2.0), complex(0.9, -0.15)),
    # large argument
    ((0.3, 1.7, 2.4), complex(5.0, 3.0)),
    ((0.58 + 0.18j, 0.58 - 0.18j, 31.16), complex(40.0, 1.0)),
    ((0.58 + 0.18j, 0.58 - 0.18j, 31.16), complex(2000.0, 10.0)),
]


@pytest.mark.parametrize("params,w", REGION_CASES)
def test_2f1_regions_against_mpmath(params, w):
    a, b, c = params
    got = gauss_2f1(a, b, c, w)
    ref = ref2f1(a, b, c, w)
    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_defining_series_sums_past_least_c_plus_k():
    """With Re c < 0 the defining series' terms can fall below the stop
    test's threshold and grow again up to k ~ -Re c, where c + k is least.
    At (-0.175, 0.067-0.01i; -32.108-0.01i; 0.557+0.118i), where |w| is the
    least mapped modulus, a sum stopped at the first small terms is 1.46
    off; summed up to k = 33 before the test applies, it is within 1e-13 of
    40-digit mpmath (3.4e-15)."""
    a, b, c, w = -0.175, 0.067 - 0.01j, -32.108 - 0.01j, 0.557 + 0.118j
    assert abs(w) < min(abs(w / (w - 1)), abs(1 - 1 / w), abs(1 / w))
    assert specfun._Series(a, b, c).settle == 33
    with mp.workdps(40):
        ref = ref2f1(a, b, c, w)
    assert abs(gauss_2f1(a, b, c, w) - ref) <= 1e-13 * abs(ref)


def test_2f1_special_values():
    # -ln(1-w)/w
    assert gauss_2f1(1, 1, 2, 0.5) == pytest.approx(2 * math.log(2), abs=1e-12)
    # Gauss summation at w = 1
    assert gauss_2f1(0.5, 0.5, 2, 1) == pytest.approx(4 / math.pi, abs=1e-12)
    # ... is exactly real for a conjugate pair (Im F on the cut ~ (w-1)^mu)
    assert gauss_2f1(0.58 - 0.18j, 0.58 + 0.18j, 31.16, 1).imag == 0.0
    # ... matches mpmath with complex parameters, and is exactly 0 at a
    # zero of 1/Gamma(c - a)
    got = gauss_2f1(0.3 + 0.2j, 0.5, 2.5, 1)
    ref = complex(mp.hyp2f1(mp.mpc(0.3, 0.2), 0.5, 2.5, 1))
    assert abs(got - ref) <= 1e-12 * abs(ref)
    assert gauss_2f1(2, -0.5, 2, 1) == 0
    # terminating series is exact everywhere
    w = complex(5.0, 2.0)
    got = gauss_2f1(-3, 2.5, 1.7, w)
    assert abs(got - ref2f1(-3, 2.5, 1.7, w)) <= 1e-12 * abs(got)
    # degenerate closed form on the cut
    got = gauss_2f1(1, 1, 2, 2, cut_side=+1)
    ref = complex(0, math.pi / 2)
    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_2f1_parameter_errors():
    """A non-positive integer c is a pole of every term; at w = 1 the
    series diverges for Re(c - a - b) <= 0."""
    with pytest.raises(ParameterPole):
        gauss_2f1(0.5, 0.7, -2.0, 0.3)
    with pytest.raises(NonConvergent):
        gauss_2f1(0.5, 0.7, 1.0, 1.0)


def test_2f1_cut_requires_side():
    with pytest.raises(OnBranchCut):
        gauss_2f1(0.6, 0.8, 4.4, 2.5)
    # off the cut no side is needed
    gauss_2f1(0.6, 0.8, 4.4, 0.5)
    hyp = Hyp2F1(0.6, 0.8, 4.4)
    for side in (None, 0, 2, -2):
        for method in (hyp.cut, hyp.cut_imag):
            with pytest.raises(OnBranchCut):
                method(1.5, side)
    assert hyp.cut(-0.5) == gauss_2f1(0.6, 0.8, 4.4, 0.5)
    assert hyp.cut_imag(-0.5) == gauss_2f1(0.6, 0.8, 4.4, 0.5).imag


def test_2f1_cut_offset_entry_point():
    """gauss_2f1 on the cut is Hyp2F1.cut at v = w - 1; a polynomial
    needs no side and stays real, and cut_imag is its imaginary part."""
    h1 = 0.57715234937124937 - 0.17707420101201338j
    c = 2 * h1.real + 30.0
    for x in (1.3, 10.9, 11.2, 40.0):
        for side in (1, -1):
            assert gauss_2f1(h1, h1.conjugate(), c, x, cut_side=side) == (
                Hyp2F1(h1, h1.conjugate(), c).cut(x - 1.0, cut_side=side)
            )
    poly = Hyp2F1(-3, 2.5, 1.7)
    assert poly.cut(4.0, cut_side=1) == gauss_2f1(-3, 2.5, 1.7, 5.0)
    for v in (4.0, -0.5):
        for side in (None, 1, -1):
            assert bits(poly.cut_imag(v, side)) == bits(poly.cut(v, side).imag)


def test_reflected_series_only_below_seam(models, monkeypatch):
    """Over the four standard grids the reflected series runs only where
    x = 1 + v <= 11, so at z = v/x <= 10/11: 51 times in all."""
    seen = []
    original = specfun._AnchoredSeries.__call__

    def spy(self, z):
        seen.append(z)
        return original(self, z)

    monkeypatch.setattr(specfun._AnchoredSeries, "__call__", spy)
    for alpha, top in STANDARD_SWEEP_RANGES:
        sweep(models[alpha], np.linspace(0.0, top, 101))
    assert len(seen) == 51
    assert max(seen) <= 10.0 / 11.0


def test_reflected_series_failure_keeps_generic_value(monkeypatch):
    """If the reflected series does not converge, an on-cut value is the
    value of the cut's route, the 1 - 1/w connection up to v = l/6 and the
    1/w connection past it, at the upper side's nudge, conjugated for the
    lower side, and nothing is raised."""
    calls = []

    def fail(*args):
        calls.append(args)
        raise NonConvergent("forced")

    monkeypatch.setattr(specfun._AnchoredSeries, "__call__", fail)
    h1 = 0.57715234937124937 - 0.17707420101201338j
    c = 2 * h1.real + 30.0
    hyp = Hyp2F1(h1, h1.conjugate(), c)
    for x, route in ((1.3, hyp._pfaff_inf), (5.0, hyp._pfaff_inf),
                     (8.0, hyp._inf)):
        upper = route(complex(x, 1e-300))
        for side in (1, -1):
            got = gauss_2f1(h1, h1.conjugate(), c, x, cut_side=side)
            assert got == (upper if side > 0 else upper.conjugate())
    assert len(calls) == 6


CONJUGATE_H1 = 0.57715234937124937 - 0.17707420101201338j


@pytest.mark.parametrize("params", [
    (CONJUGATE_H1, CONJUGATE_H1.conjugate(), 2 * CONJUGATE_H1.real + 30.0),
    (0.3876868947518969, 1.328219013045754, 31.716),
], ids=["conjugate pair (alpha=3)", "real pair (alpha=5)"])
def test_cut_imag_is_im_of_cut(monkeypatch, params):
    """Hyp2F1.cut_imag(v, s) is cut(v, s).imag bit for bit on both sides,
    across the reflected series' reach (x = 11 at l = 30, 11 plus one ulp
    for the real pair, whose 2H is 10.000000000000002: v at the reach and
    its float neighbours) and off the cut.  On the cut up to the reach it
    never evaluates the generic value, a 1 - 1/w or 1/w region."""
    hyp = Hyp2F1(*params)
    calls = []
    for name in ("_pfaff_inf", "_inf"):
        def spy(self, *args, region=getattr(Hyp2F1, name)):
            calls.append(args)
            return region(self, *args)

        monkeypatch.setattr(Hyp2F1, name, spy)
    edge = reflected_reach(hyp) - 1.0
    below = (1e-3, 0.3, 0.618, 0.7, 5.0, math.nextafter(edge, 0.0), edge)
    above = (math.nextafter(edge, math.inf), 10.5, 40.0, 1e3)
    for v in below + above:
        for side in (1, -1):
            calls.clear()
            got = hyp.cut_imag(v, side)
            assert len(calls) == (v in above)
            assert got.hex() == hyp.cut(v, side).imag.hex()
    for v in (0.0, -0.5, -5.0):
        for side in (None, 1, -1):
            assert bits(hyp.cut_imag(v, side)) == bits(hyp.cut(v, side).imag)


def test_cut_imag_falls_back_when_reflected_series_fails(monkeypatch):
    """With too few terms for the reflected series (but enough for the 1/w
    connection, which serves past v = l/6 = 5), cut_imag keeps the generic
    value's imaginary part, as cut does, and sums the reflected series once
    per call; the generic value is that at the upper side's nudge,
    conjugated for the lower side.  At 40 terms the defining series at the
    first anchor, z = 1/2, runs out (it needs 48 at l = 30), so every point
    above it fails."""
    outcomes = []
    original = specfun._AnchoredSeries.__call__

    def spy(*args):
        try:
            value = original(*args)
        except NonConvergent:
            outcomes.append("failed")
            raise
        outcomes.append("summed")
        return value

    monkeypatch.setattr(specfun._AnchoredSeries, "__call__", spy)
    monkeypatch.setattr(specfun, "MAX_TERMS", 40)
    hyp = Hyp2F1(CONJUGATE_H1, CONJUGATE_H1.conjugate(),
                 2 * CONJUGATE_H1.real + 30.0)
    for v in (5.5, 6.0, 9.5):
        for side in (1, -1):
            outcomes.clear()
            got = hyp.cut_imag(v, side)
            assert outcomes == ["failed"]
            assert got.hex() == hyp.cut(v, side).imag.hex()
            upper = hyp(complex(1.0 + v, 1e-300)).imag
            assert got.hex() == (side * upper).hex()


def bits(z):
    """The exact floats of a complex value, signed zeros included."""
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def reflected_reach(hyp):
    """The largest x = 1 + v at which the cut's Im F comes from the
    reflected series: 1 + max(10, 2H), H the instance's Re F hand-over."""
    return 1.0 + max(10.0, 2.0 * hyp._hand_over)


def summed(total, terms, settle=0):
    """``total`` plus ``terms`` under the kept series' stop rule (two terms
    in a row within SERIES_RTOL of the running sum, not among the first
    ``settle``), and the number of terms that took."""
    small = 0
    for used, term in enumerate(terms, 1):
        total += term
        if used <= settle:
            continue
        if abs(term) <= specfun.SERIES_RTOL * abs(total):
            small += 1
            if small >= 2:
                return total, used
        else:
            small = 0
    raise NonConvergent("reference sum did not converge")


def series_terms(a, b, c, w):
    """The defining series' MAX_TERMS terms, each ratio formed afresh."""
    term = complex(1.0)
    for k in range(specfun.MAX_TERMS):
        term = term * (a + k) * (b + k) * w / ((c + k) * (k + 1))
        yield term


def plain_series(a, b, c, w):
    """The defining series, each term's parameter values formed afresh; for
    Re c < 0 the terms up to k = -Re c are summed without the stop test."""
    settle = max(0, int(-complex(c).real) + 1)
    return summed(complex(1.0), series_terms(a, b, c, w),
                  settle if settle < specfun.MAX_TERMS else 0)[0]


def test_reflected_series_is_the_defining_one_up_to_x_2():
    """Up to z = v/x = 1/2 (x = 1 + v <= 2) the reflected series is the
    defining series summed as before, bit for bit, and builds no anchor;
    just above it the first anchor serves."""
    for params in ((CONJUGATE_H1, CONJUGATE_H1.conjugate(),
                    2 * CONJUGATE_H1.real + 30.0),
                   (0.3876868947518969, 1.328219013045754, 31.716)):
        reflected = Hyp2F1(*params)._reflection[-1]
        a, b, c = reflected.series.a, reflected.series.b, reflected.series.c
        for v in (1e-3, 0.3, 0.7, math.nextafter(1.0, 0.0), 1.0):
            z = v / (1.0 + v)
            assert bits(reflected(z)) == bits(plain_series(a, b, c, z))
        assert reflected.anchors == []
        reflected(math.nextafter(0.5, 1.0))
        assert len(reflected.anchors) == 1


def two_sum_inf(hyp, w):
    """The 1/w connection (DLMF 15.8.2) with both of its series summed."""
    a, b, c = hyp.a, hyp.b, hyp.c
    k1, k2 = hyp._inf_route[1:3]
    iw = 1.0 / w
    return (k1 * (-w) ** (-a) * plain_series(a, a - c + 1.0, a - b + 1.0, iw)
            + k2 * (-w) ** (-b) * plain_series(b, b - c + 1.0, b - a + 1.0, iw))


CONJUGATE_PAIRS = [
    (0.57715234937124937 - 0.17707420101201338j, 30.0),  # alpha = 3
    (0.42 - 0.33j, 30.0),
    (1.3 - 2.1j, 1.8),
    (-0.7 + 0.45j, 4.25),
]


def counting_series(monkeypatch):
    """Count every series sum of every Hyp2F1 (patched on the class)."""
    calls = []
    original = specfun._Series.__call__

    def spy(self, w):
        calls.append(self)
        return original(self, w)

    monkeypatch.setattr(specfun._Series, "__call__", spy)
    return calls


@pytest.mark.parametrize("h, l", CONJUGATE_PAIRS)
def test_conjugate_pair_sums_one_inf_series(monkeypatch, h, l):
    """For b = conj(a) and real c the 1/w connection on the cut, past
    v = max(1, l/6), sums one series and takes its conjugate for the other:
    bit for bit the two-sum formula, on both sides, where Im F comes from
    the reflected series (up to its reach, x = 11 at l = 30) and beyond.
    Off the axis both series are summed, and at |w| >= 5 the value is
    within 1e-12 of mpmath (nearer the region seam see
    test_inf_connection_near_seam_off_axis)."""
    a, b, c = h, h.conjugate(), 2.0 * h.real + l
    hyp = Hyp2F1(a, b, c)
    calls = counting_series(monkeypatch)
    for x in (6.5, 8.0, 10.5, 11.5, 40.0, 2000.0):
        for side in (1, -1):
            w = complex(x, side * 1e-300)
            expected = two_sum_inf(hyp, w)
            calls.clear()
            assert bits(hyp(w)) == bits(expected)
            assert len(calls) == 1
            cut = Hyp2F1(a, b, c).cut(x - 1.0, cut_side=side)
            assert bits(cut.real) == bits(expected.real)
            if x > reflected_reach(hyp):
                assert bits(cut) == bits(expected)
    worst = 0.0
    for r in (2.0, 5.0, 60.0):
        for th in (0.6, 1.4, 2.6, -0.9, -2.9):
            w = cmath.rect(r, th)
            calls.clear()
            got = hyp(w)
            assert len(calls) == 2
            assert bits(got) == bits(two_sum_inf(hyp, w))
            if r >= 5.0:
                with mp.workdps(40):
                    ref = ref2f1(a, b, c, w)
                worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-12


@pytest.mark.xfail(strict=True, reason="the 1/w connection's first series"
                   " grows as C(l, k) |w|^-k before it decays at c ~ 31: 1.2e-10"
                   " and 2.7e-10 at |w| = 2, theta = 2.6 and -2.9, where"
                   " |1 - 1/w| = 1.45 and 1.49 is out of reach and the smallest"
                   " mapped modulus puts 1/w (0.5) before w/(w-1) (0.69, 0.67);"
                   " _stepped is within 1.4e-14 (ROADMAP item 3(d))")
@pytest.mark.parametrize("h, l", CONJUGATE_PAIRS[:2])
def test_inf_connection_near_seam_off_axis(h, l):
    """Off the axis at |w| = 2 and 3 the resonance family's 1/w value is
    2.3e-14 to 2.7e-10 from 40-digit mpmath: the digits the connection
    loses to cancelling terms, with both series summed."""
    a, b, c = h, h.conjugate(), 2.0 * h.real + l
    worst = 0.0
    for r in (2.0, 3.0):
        for th in (0.6, 1.4, 2.6, -0.9, -2.9):
            w = cmath.rect(r, th)
            with mp.workdps(40):
                ref = ref2f1(a, b, c, w)
            worst = max(worst, abs(gauss_2f1(a, b, c, w) - ref) / abs(ref))
    assert worst <= 1e-12


def test_real_pair_sums_both_inf_series(monkeypatch):
    """A real pair (h1, h2 at alpha = 5) has no conjugate shortcut: the
    1/w connection on the cut sums two series, bit for bit the formula."""
    hyp = Hyp2F1(0.3876868947518969, 1.328219013045754, 31.716)
    calls = counting_series(monkeypatch)
    for x in (2.5, 40.0):
        for side in (1, -1):
            w = complex(x, side * 1e-300)
            calls.clear()
            assert bits(hyp(w)) == bits(two_sum_inf(hyp, w))
            assert len(calls) == 2


@functools.cache
def continuation(alpha):
    return standard_model(alpha)._continuation[1]


@given(
    logs=st.lists(st.floats(-3, 3), min_size=1, max_size=10),
    sides=st.lists(st.sampled_from((1, -1)), min_size=10, max_size=10),
    alpha=st.sampled_from((3, 5)),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_kept_terms_carry_no_state(logs, sides, alpha, order):
    """One Hyp2F1 (a model's kept continuation, reused across examples)
    gives the same bits as a fresh instance per point, in any order: on
    the cut in the log region, at x <= 11 and x > 11 of the 1/w region,
    off the axis, and around a one-shot gauss_2f1 call."""
    shared = continuation(alpha)
    a, b, c = shared.a, shared.b, shared.c
    points = [(10.0 ** u, side) for u, side in zip(logs, sides)]
    points += [(0.3, 1), (4.0, -1), (50.0, 1)]
    calls = [lambda f, v=v, side=side: f.cut(v, cut_side=side)
             for v, side in points]
    calls += [lambda f, w=w: f(w)
              for w in (complex(3.0, 2.0), complex(-4.0, 0.5), -7.0,
                        complex(0.3, 0.2), complex(1.2, -0.4))]
    calls.append(lambda f: gauss_2f1(a, b, c, 2.5, cut_side=-1))
    order.shuffle(calls)
    for call in calls:
        assert bits(call(shared)) == bits(call(Hyp2F1(a, b, c)))


def log_tail_terms(a, m, s, iw):
    """The log tail's MAX_TERMS terms at 1/w = iw, its running product,
    its digamma product and its digamma sum advanced afresh; H_m left to
    right, as sum() rounds H_30 differently from Python 3.12."""
    harmonic = 0.0
    for j in range(1, m + 1):
        harmonic += 1.0 / j
    t = _rgamma(s) / math.factorial(m)
    u = t * specfun.digamma(s)
    p = harmonic - 2.0 * specfun._EULER_GAMMA - specfun.digamma(a + m)
    log_w = cmath.log(-1.0 / iw)
    pow_w = complex(1.0)
    for k in range(specfun.MAX_TERMS):
        yield pow_w * (t * log_w + (t * p - u))
        ak = a + m + k
        r = ak / ((k + 1) * (k + m + 1))
        t, u, p = (t * r * (k + 1 - s), r * ((k + 1 - s) * u + t),
                   p + 1.0 / (k + 1) + 1.0 / (k + m + 1) - 1.0 / ak)
        pow_w = pow_w * iw


def plain_log_tail(a, m, s, iw):
    """The log tail of DLMF 15.8.8, its running values advanced afresh in
    every call."""
    return summed(complex(0.0), log_tail_terms(a, m, s, iw))[0]


def kept_log_tail(a, m, s):
    return specfun._LogTail(a, m, s, specfun.digamma(a + m),
                            specfun.digamma(s))


def sum_log_tail(tail, iw):
    return tail(iw, cmath.log(-1.0 / iw))


@given(
    ar=st.floats(-2, 2), ai=st.floats(-2, 2), br=st.floats(-2, 2),
    m=st.sampled_from((0, 1, 2, 30)),
    points=st.lists(st.tuples(st.floats(0.01, 0.85), st.floats(-3.1, 3.1)),
                    min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_kept_series_match_plain_loops(ar, ai, br, m, points):
    """One _Series and one _LogTail, summed at a list of points in turn,
    give the bits, or the error, of the loops that form every term's
    values afresh."""

    def outcome(call, *args):
        try:
            return bits(call(*args))
        except (ZeroDivisionError, NonConvergent) as exc:
            return type(exc)

    a, b = complex(ar, ai), complex(br, -ai)
    series = specfun._Series(a, b, a + b + 1.5)
    try:
        tail = kept_log_tail(a, m, b)
    except PoleError:
        tail = None
    for r, th in points:
        w = cmath.rect(r, th)
        assert outcome(series, w) == outcome(plain_series, a, b, a + b + 1.5, w)
        if tail is not None:
            assert outcome(sum_log_tail, tail, w) == outcome(
                plain_log_tail, a, m, b, w)


def taylor_terms(expansion, h, derivative):
    """The terms n = 1 + derivative .. MAX_TERMS - 1 + derivative of S (or
    of S' times rho) at z0 + h, from a fresh list of coefficients by the
    three-term recurrence."""
    a, b, p, q, r = (expansion.a, expansion.b, expansion.p, expansion.q,
                     expansion.r)
    s = list(expansion.coeffs[:2])
    u = h / expansion.rho
    pow_u = 1.0
    for n in range(1, specfun.MAX_TERMS + derivative):
        if n >= len(s):
            m = n - 2
            s.append(((m + a) * (m + b) * s[m] - (q * m + r) * (m + 1)
                      * s[m + 1]) / (p * (m + 1) * (m + 2)))
        if n > derivative:
            pow_u *= u
            yield s[n] * pow_u * n if derivative else s[n] * pow_u


KEPT_A, KEPT_B = 0.3 + 0.4j, 0.3 - 0.4j
TAYLOR_ARGS = (KEPT_A, 1.3, 2.7, 0.5, 1.0 + 0.5j, -0.3 + 0.2j, 0.5 / 3.0)
SCAN = [k / 1000.0 for k in range(1, 960)]


class KeptCase(NamedTuple):
    """One kept series: a fresh instance, its sum at an argument, the plain
    loop's (value, terms summed) there, the instance's kept rows, the rows
    a sum of that many terms reads, its exhaustion message, and arguments
    that need from few terms to many."""
    make: Callable
    call: Callable
    plain: Callable
    kept: Callable
    rows_read: Callable
    message: str
    scan: list


def plain_taylor(h, derivative):
    expansion = specfun._Taylor(*TAYLOR_ARGS)
    total, used = summed(expansion.coeffs[derivative],
                         taylor_terms(expansion, h, derivative))
    return (total / expansion.rho if derivative else total), used


def taylor_case(derivative):
    return KeptCase(
        lambda: specfun._Taylor(*TAYLOR_ARGS),
        lambda expansion, h: expansion(h, derivative),
        lambda h: plain_taylor(h, derivative),
        lambda expansion: len(expansion.coeffs),
        lambda used: used + 1 + derivative,
        "Taylor expansion exhausted {} terms",
        [2.9 * TAYLOR_ARGS[-1] * x for x in SCAN])


KEPT_CASES = {
    "series": KeptCase(
        lambda: specfun._Series(KEPT_A, KEPT_B, 2.7),
        lambda series, w: series(w),
        lambda w: summed(complex(1.0), series_terms(KEPT_A, KEPT_B, 2.7, w)),
        lambda series: len(series.rows),
        lambda used: used,
        "hypergeometric series exhausted {} terms",
        [cmath.rect(x, 0.7) for x in SCAN]),
    "log tail": KeptCase(
        lambda: kept_log_tail(KEPT_A, 2, KEPT_B),
        sum_log_tail,
        lambda iw: summed(complex(0.0), log_tail_terms(KEPT_A, 2, KEPT_B, iw)),
        lambda tail: len(tail.rows),
        lambda used: used,
        "logarithmic tail exhausted {} terms",
        [cmath.rect(x, -2.1) for x in SCAN]),
    "Taylor S": taylor_case(0),
    "Taylor S'": taylor_case(1),
}


def first_reading(case, rows):
    """The first scanned argument whose plain sum reads ``rows`` rows."""
    return next(x for x in case.scan
                if case.rows_read(case.plain(x)[1]) == rows)


@pytest.mark.parametrize("name", KEPT_CASES)
def test_kept_series_form_rows_as_the_sum_reaches_them(name):
    """Each kept series, summed where its plain loop reads 9, 16, 17 and 48
    rows past the instance's first rows, gives the plain loop's bits,
    on a fresh instance, which then keeps just the rows its sum read, and
    on one that a longer sum grew first, which forms no row for them."""
    case = KEPT_CASES[name]
    first = case.kept(case.make())
    shared = case.make()
    case.call(shared, first_reading(case, first + 53))
    for rows in (first + 9, first + 16, first + 17, first + 48):
        x = first_reading(case, rows)
        expected = bits(case.plain(x)[0])
        fresh = case.make()
        assert bits(case.call(fresh, x)) == expected
        assert case.kept(fresh) == rows
        assert bits(case.call(shared, x)) == expected
        assert case.kept(shared) == first + 53


@pytest.mark.parametrize("name", KEPT_CASES)
def test_kept_series_stop_at_max_terms(monkeypatch, name):
    """With MAX_TERMS at 37, each kept series gives the plain loop's bits
    where a loop of that many terms converges and raises its exhaustion
    message where it does not: on a fresh instance, and on one whose rows
    a sum at MAX_TERMS = 500 grew past 37."""
    case = KEPT_CASES[name]
    points = [next(x for x in case.scan if case.plain(x)[1] >= n)
              for n in range(30, 45)]
    grown = case.make()
    case.call(grown, points[-1])
    monkeypatch.setattr(specfun, "MAX_TERMS", 37)
    outcomes = set()
    for x in points:
        for series in (case.make(), grown):
            try:
                expected = bits(case.plain(x)[0])
            except NonConvergent:
                with pytest.raises(NonConvergent) as info:
                    case.call(series, x)
                assert str(info.value) == case.message.format(37)
                outcomes.add("raised")
            else:
                assert bits(case.call(series, x)) == expected
                outcomes.add("summed")
    assert outcomes == {"summed", "raised"}


POLYNOMIAL_PARAMS = ((2.5, 1.7), (0.3 + 0.4j, 2.2 - 0.5j))
POLYNOMIAL_POINTS = (0.5j, cmath.rect(0.8, 2.0), 1 + 0.3j, cmath.rect(3.0, -1.2),
                     -4 + 1j, 1.5, 5.0, 40.0)


@pytest.mark.parametrize("n", (0, 1, 3, 17, 40))
def test_polynomial_is_its_terms_summed_left_to_right(n):
    """2F1(-n, b; c; w) is its n + 1 terms, each from the last by the term
    ratio and added left to right, bit for bit off the real axis and at
    x > 1 on either side (a polynomial has no cut).  Against 40-digit
    mpmath it is within 2e-15 of the sum of the terms' moduli (1.5e-15 at
    worst, at n = 40); relative to the value it is not, as the terms cancel
    near w = 1 (4e5 at n = 40, b = 2.5, w = 1.5)."""
    worst = 0.0
    for b, c in POLYNOMIAL_PARAMS:
        hyp = Hyp2F1(-n, b, c)
        a, b, c = complex(-n), complex(b), complex(c)
        for w in POLYNOMIAL_POINTS:
            term = total = complex(1.0)
            scale = 1.0
            for k in range(n):
                term = term * (a + k) * (b + k) * w / ((c + k) * (k + 1))
                total += term
                scale += abs(term)
            for side in ((1, -1) if w.imag == 0.0 else (None,)):
                assert bits(hyp(w, side)) == bits(total)
                assert bits(gauss_2f1(-n, b, c, w, side)) == bits(total)
            with mp.workdps(40):
                ref = complex(mp.hyp2f1(-n, mp.mpc(b), mp.mpc(c), mp.mpc(w)))
            worst = max(worst, abs(total - ref) / scale)
    assert worst <= 2e-15


@pytest.mark.xfail(strict=True, reason="a polynomial's terms cancel near"
                   " w = 1 with no error raised (ROADMAP item 3(b)/(e))")
def test_polynomial_near_one_against_mpmath():
    """Against 40-digit mpmath a polynomial 2F1(-n, b; c; w) is 4.0e5
    relative off at (-40, 2.5; 1.7; 1.5), 7.9 at w = 1 + 0.3i, 1.0e-3 at
    (-40, 0.3+0.4i; 2.2-0.5i; 1.5), 1.4e-6 at (-17, 2.5; 1.7; 1.5) and
    4.2e-9 at (-40, 2.5; 1.7; 0.3): each of these within 1e-12 fails."""
    misses = []
    for a, b, c, w in ((-40, 2.5, 1.7, 1.5), (-40, 2.5, 1.7, 1 + 0.3j),
                       (-40, 0.3 + 0.4j, 2.2 - 0.5j, 1.5),
                       (-17, 2.5, 1.7, 1.5), (-40, 2.5, 1.7, 0.3)):
        with mp.workdps(40):
            ref = ref2f1(a, b, c, w)
        got = gauss_2f1(a, b, c, w, 1 if w == 1.5 else None)
        if abs(got - ref) > 1e-12 * abs(ref):
            misses.append((a, b, c, w, abs(got - ref) / abs(ref)))
    assert not misses


def test_log_head_keeps_its_rows():
    """The finite head of the 1 - 1/w connection's log entry (m = 30 here)
    keeps its 30 coefficients, formed once from 29 rows of its series: a
    second low-field cut forms none, and gives the bits of a fresh
    instance."""
    params = (CONJUGATE_H1, CONJUGATE_H1.conjugate(),
              2 * CONJUGATE_H1.real + 30.0)
    hyp = Hyp2F1(*params)
    hyp.cut(0.2, 1)
    m, head = hyp._pfaff._inf_route[:2]
    assert m == len(head) == 30
    for v in (0.05, 0.31, 0.2):
        assert bits(hyp.cut(v, -1)) == bits(Hyp2F1(*params).cut(v, -1))
        assert hyp._pfaff._inf_route[1] is head


def test_reproduce_figure_one_series_work(capsys, monkeypatch):
    """The series sums of ``reproduce --figure 1`` (alpha = 3, a conjugate
    pair, l = 30): 95 points on the 1/w route with one series each, 7
    reflected series (x <= 11) and 5 log tails, the points at v <= l/6 on
    the 1 - 1/w connection.  Summing the second 1/w series again would
    double the first count.  Of the reflected series, the two at
    z = v/x <= 1/2 sum the defining series; the five above step from the
    anchors z = 1/2 .. 0.901, built once, whose first one takes S and S'
    from one defining-series sum each.  The run starts from an empty
    registry of kept continuations, so that it builds its own."""
    starkdim.resum._kept_continuation.cache_clear()
    hyp = continuation(3)
    mu = hyp.c - hyp.a - hyp.b
    kinds = {hyp.a - hyp.b + 1.0: "1/w", hyp.b - hyp.a + 1.0: "1/w",
             mu + 1.0: "reflected", mu + 2.0: "reflected slope"}
    calls = counting_series(monkeypatch)
    tails = []
    original_tail = specfun._LogTail.__call__

    def tail_spy(self, iw, log_w):
        tails.append(iw)
        return original_tail(self, iw, log_w)

    reflected = []
    original_reflected = specfun._AnchoredSeries.__call__

    def reflected_spy(self, z):
        reflected.append((self, z))
        return original_reflected(self, z)

    monkeypatch.setattr(specfun._LogTail, "__call__", tail_spy)
    monkeypatch.setattr(specfun._AnchoredSeries, "__call__", reflected_spy)
    assert run(["reproduce", "--figure", "1"]) == 0
    capsys.readouterr()
    assert Counter(kinds.get(series.c, "other") for series in calls) == {
        "1/w": 95, "reflected": 3, "reflected slope": 1}
    assert len(reflected) == 7
    assert sum(z <= 0.5 for _, z in reflected) == 2
    assert len({id(series) for series, _ in reflected}) == 1
    assert len(reflected[0][0].anchors) == 5
    assert len(tails) == 5


@pytest.mark.parametrize("params", [(0.6, 0.8, 4.4),
                                    (0.58 + 0.18j, 0.58 - 0.18j, 31.16)])
@pytest.mark.parametrize("x", [1.3, 2.5, 40.0, 2000.0])
def test_2f1_cut_sides(params, x):
    """Both one-sided limits match mpmath and mirror each other."""
    a, b, c = params
    up = gauss_2f1(a, b, c, x, cut_side=+1)
    down = gauss_2f1(a, b, c, x, cut_side=-1)
    ref_up = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c),
                               mp.mpc(x, 1e-18)))
    assert abs(up - ref_up) <= 1e-8 * abs(ref_up)
    assert down == complex(up.real, -up.imag)


@pytest.mark.parametrize("alpha", [3.0, 5.2],
                         ids=["conjugate pair", "real pair"])
def test_cut_region_at_unit_inf_tie(alpha):
    """Around v = 1, where |1 - 1/w| and |1/w| tie on the cut, the public
    call at the cut's nudge gives the value of the region that sorting all
    four mapped moduli picks, and both regions serve among the seven
    floats.  cut takes Re F from the 1 - 1/w connection up to
    v = l/6 = (c - a - b)/6 and from the 1/w connection past it, bit for
    bit that route's value at the upper side's nudge, on both sides."""
    hyp = continuation(alpha)
    v = 1.0
    for _ in range(3):
        v = math.nextafter(v, 0.0)
    picked = set()
    for _ in range(7):
        for side in (1, -1):
            w = complex(1.0 + v, side * specfun._CUT_IMAG)
            rho, region = min((abs(w), 0), (abs(w / (w - 1.0)), 1),
                              (abs(1.0 - 1.0 / w), 2), (abs(1.0 / w), 3))
            assert region in (2, 3) and rho <= specfun._RHO_MAX
            picked.add(region)
            method = ("_pfaff_inf", "_inf")[region - 2]
            assert bits(hyp(w)) == bits(getattr(hyp, method)(w))
        v = math.nextafter(v, 2.0)
    assert picked == {2, 3}
    hand_over = (hyp.c - hyp.a - hyp.b).real / 6.0
    for v, method in ((1.0, "_pfaff_inf"), (hand_over, "_pfaff_inf"),
                      (math.nextafter(hand_over, 6.0), "_inf")):
        upper = getattr(hyp, method)(complex(1.0 + v, specfun._CUT_IMAG))
        for side in (1, -1):
            want = complex(upper.real, side * hyp._cut_imag_part(v))
            assert bits(hyp.cut(v, side)) == bits(want)


@pytest.mark.parametrize("l", [95.0, 98.0])
def test_hand_over_capped_at_15(monkeypatch, l):
    """Past l = 90 Re F hands over to the 1/w connection at v = 15, not at
    l/6, as the 1 - 1/w connection's log tail runs out of MAX_TERMS short
    of l/6 there (at alpha = 1.01 and 3, l = 95 and 98, on up to 23 of 41
    points of v in [14, l/6], each after 500 terms).  On that stretch no
    call of it raises now, and Re F is within 1e-12 of 60-digit mpmath
    (worst 3.5e-13, alpha = 20, l = 98, from the 1/w connection)."""
    raised = []
    original = Hyp2F1._pfaff_inf

    def spy(self, w):
        try:
            return original(self, w)
        except NumericalError as exc:
            raised.append((w, exc))
            raise

    monkeypatch.setattr(Hyp2F1, "_pfaff_inf", spy)
    for alpha in (1.01, 3.0, 20.0):
        model = standard_model(alpha, l=l)
        a, b = model.h1, model.h2
        hyp = Hyp2F1(a, b, a + b + l)
        assert hyp._hand_over == 15.0
        for v in np.linspace(14.0, l / 6.0, 13):
            got = hyp.cut(float(v), -1).real
            with mp.workdps(60):
                ref = float(mp.re(mp.hyp2f1(
                    mp.mpc(a), mp.mpc(b), mp.mpc(a + b + l),
                    mp.mpc(1 + mp.mpf(float(v)), "-1e-50"))))
            assert abs(got - ref) <= 1e-12 * abs(ref), (alpha, v)
    assert raised == []


def test_reflected_series_has_no_anchor_at_one(monkeypatch):
    """The anchors end at the last one below 1.0, so z = v/x = 1.0 raises
    NonConvergent at once, and a cut whose reflected series raises keeps
    the generic value's imaginary part.  The reach, 1 + max(10, 2H), is at
    most 31; an instance whose hand-over H is set past every v takes the
    reflected series at v = 1e17, where v/x rounds to 1.0."""
    reflected = continuation(3.0)._reflection[-1]
    with pytest.raises(NonConvergent):
        reflected(1.0)
    anchors = specfun._ANCHORS
    assert anchors[-1] < 1.0 == 1.0 - 0.5 * (2.0 / 3.0) ** len(anchors)
    hyp = Hyp2F1(CONJUGATE_H1, CONJUGATE_H1.conjugate(),
                 2 * CONJUGATE_H1.real + 30.0)
    monkeypatch.setattr(hyp, "_hand_over", math.inf)
    v = 1e17  # v/x rounds to 1.0
    assert 1.0 + v <= reflected_reach(hyp)
    for side in (1, -1):
        generic = hyp(complex(1.0 + v, side * specfun._CUT_IMAG))
        assert bits(hyp.cut(v, side)) == bits(generic)


def test_cut_imaginary_part_full_relative_accuracy():
    """On-cut values keep small imaginary parts at full relative accuracy.

    The resonance family has conjugate upper parameters and real c; the
    imaginary part spans tens of orders of magnitude across the cut and is
    compared against a 60-digit mpmath reference.
    """
    mp.mp.dps = 60
    h1, h2 = 0.57715234937124937 - 0.17707420101201338j, None
    h2 = h1.conjugate()
    c = complex(2 * h1.real + 30.0)
    worst_im = 0.0
    for xm1 in (0.05, 0.2, 0.786, 1.5, 8.0, 30.0):
        x = 1.0 + xm1
        got = gauss_2f1(h1, h2, c, x, cut_side=+1)
        ref = mp.hyp2f1(mp.mpc(h1), mp.mpc(h2), mp.mpc(c), mp.mpc(x, "1e-80"))
        im_ref = float(mp.im(ref))
        worst_im = max(worst_im, abs(got.imag - im_ref) / abs(im_ref))
    mp.mp.dps = 30
    assert worst_im < 5e-13


def test_2f1_nonconjugate_real_params_on_cut():
    mp.mp.dps = 60
    for a, b, c in ((0.3, 0.7, 2.2), (0.25, 1.75, 7.5)):
        for x in (1.3, 2.5, 9.0):
            got = gauss_2f1(a, b, c, x, cut_side=+1)
            ref = mp.hyp2f1(a, b, c, mp.mpc(x, "1e-80"))
            assert abs(got.imag - float(mp.im(ref))) <= 5e-13 * abs(
                float(mp.im(ref))
            )
    mp.mp.dps = 30


@pytest.mark.parametrize("m", [-3, -2, -1, 0, 1, 2, 30])
@pytest.mark.parametrize("upper", [(0.6, 0.8), (0.58 + 0.18j, 0.58 - 0.18j)])
def test_log_connection_against_mpmath(monkeypatch, m, upper):
    """Integer c - a - b = m near w = 1 matches 40-digit mpmath, off the
    cut and on both of its sides.  Where |1 - 1/w| is the least mapped
    modulus (all but w = 1 + 0.45 e^(3.1i), where the defining series
    comes first), the 1 - 1/w connection serves: the log entry of the
    Pfaff function 2F1(a, c-b; c; .), whose upper parameters differ by
    |m|, for either sign of m."""
    a, b = upper
    c = (a + b + m).real
    calls = []
    original = Hyp2F1._pfaff_inf

    def spy(self, w):
        value = original(self, w)
        calls.append(self._pfaff._inf_route[0])
        return value

    monkeypatch.setattr(Hyp2F1, "_pfaff_inf", spy)
    points = [(1.0 + r * cmath.exp(1j * th), None)
              for r in (0.1, 0.3, 0.45) for th in (0.7, 2.0, 3.1, -1.2)]
    points += [(x, side) for x in (1.05, 1.25, 1.45) for side in (1, -1)]
    worst = 0.0
    for w, side in points:
        w = complex(w)
        first = abs(1 - 1 / w) < min(abs(w), abs(w / (w - 1)), abs(1 / w))
        calls.clear()
        got = gauss_2f1(a, b, c, w, cut_side=side)
        assert calls == ([abs(m)] if first else [])
        with mp.workdps(40):
            z = mp.mpc(w.real, (side or 0) * mp.mpf("1e-60") + w.imag)
            ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), c, z))
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-13


def test_euler_log_connection_with_negative_c():
    """A negative integer c - a - b with c < 0 near w = 1 matches 80-digit
    mpmath within 1e-13: Re F from the 1 - 1/w connection, the log entry
    of the Pfaff function (m = 6, 30 and 30), and Im F on the cut from the
    same value, as mu + 1 = -5 is a pole of the DLMF 15.2.3 form."""
    w = 1.0 + 0.45 * cmath.exp(3.1j)
    errors = []
    for a, b, c, z, side in ((0.6, 0.8, -4.6, 1.45, 1),
                             (0.6, 0.8, -28.6, w, None),
                             (0.58 + 0.18j, 0.58 - 0.18j, -28.84, w, None)):
        got = gauss_2f1(a, b, c, z, cut_side=side)
        with mp.workdps(80):
            ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), c, mp.mpc(
                z.real, (side or 0) * mp.mpf("1e-60") + z.imag)))
        errors.append(abs(got - ref) / abs(ref))
    assert max(errors) <= 1e-13, errors


# (a, b, c, w, cut_side) with b - a an integer, served by the log entry of
# the 1/w connection (DLMF 15.8.8)
LOG_INF_POINTS = [
    # only the 1/w region in reach
    *((a, a + d, c, w, None)
      for a in (0.35, -0.6 + 0.5j, 2.2 + 0.3j) for d in range(4)
      for c, w in ((0.8, cmath.rect(2.1, 0.6)), (3.1, cmath.rect(1.9, -1.1)))),
    (2.316843515025479 + 0.785436630732733j,
     5.316843515025479 + 0.785436630732733j, 2.55910493136595,
     1.4212140055888838 + 1.0240953345681036j, None),
    # on the cut, both sides
    *((a, a + d, c, x, side)
      for a, d, c in ((0.35, 1, 0.8), (0.3, 0, 1.7), (-0.6, 3, 2.5))
      for x in (3.0, 1e3, 1e6) for side in (1, -1)),
    # far from z = 0, each timed
    (0.35, 1.35, 0.8, cmath.rect(1e12, 0.7), None),
    (0.35, 2.35, 3.1, cmath.rect(1e100, -2.1), None),
]


def test_log_inf_connection_against_mpmath(monkeypatch):
    """b - a = m an integer with the 1/w region first: the log entry of
    the 1/w connection with that m serves, within 1e-12 of 40-digit mpmath
    (worst 3.0e-14), and |w| = 1e12 and 1e100 each take under 0.2 s."""
    calls = []
    original = Hyp2F1._inf

    def spy(self, w):
        calls.append(self._inf_route[0])
        return original(self, w)

    monkeypatch.setattr(Hyp2F1, "_inf", spy)
    for a, b, c, w, side in LOG_INF_POINTS:
        calls.clear()
        start = time.perf_counter()
        got = gauss_2f1(a, b, c, w, cut_side=side)
        elapsed = time.perf_counter() - start
        assert calls == [round((complex(b) - a).real)], (a, b, c, w)
        with mp.workdps(40):
            z = mp.mpc(w.real, (side or 0) * mp.mpf("1e-60") + w.imag)
            ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), z))
        assert abs(got - ref) <= 1e-12 * abs(ref), (a, b, c, w, side)
        if abs(w) >= 1e12:
            assert elapsed < 0.2, w


# (a, b, c, w, cut_side) near w = 1 with c - a - b near 30, where the
# 1 - 1/w connection, log (m = 30) or not, sums within MAX_TERMS
PFAFF_INF_POINTS = [
    (-1.2242, -1.2242, 27.5516, 1.1147 + 0.7707j, None),
    (0.3818 - 1.1035j, 2.3818 - 1.1035j, 32.7636 - 2.2069j,
     1.6622 - 0.5952j, None),
    (-1.66, 0.34, 4.6233 + 0.3561j, 1.8997, 1),
]


def test_pfaff_inf_connection_against_mpmath(monkeypatch):
    """At these points the 1 - 1/w connection serves, within 1e-12 of
    40-digit mpmath (worst 3.8e-13), and the last resort is not taken."""
    served = []
    for name in ("_pfaff_inf", "_stepped"):
        def spy(self, w, method=getattr(Hyp2F1, name), name=name):
            served.append(name)
            return method(self, w)

        monkeypatch.setattr(Hyp2F1, name, spy)
    for a, b, c, w, side in PFAFF_INF_POINTS:
        served.clear()
        got = gauss_2f1(a, b, c, w, cut_side=side)
        assert served == ["_pfaff_inf"], (a, b, c, w)
        with mp.workdps(40):
            z = mp.mpc(w.real, (side or 0) * mp.mpf("1e-60") + w.imag)
            ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), z))
        assert abs(got - ref) <= 1e-12 * abs(ref), (a, b, c, w, side)


# (a, b, c, w, cut_side) that no series region serves: every mapped
# modulus above _RHO_MAX near w = e^(i pi/3)
STEPPED_POINTS = [
    (0.4209, 2.9114, 4.3102, 0.4743 + 0.8389j, None),
    (2.5051, 4.5051, 1.2297, 0.4948 + 0.7702j, None),
]

# (a, b, c, w) where the 1/w connection, the only region in reach, exhausts
# MAX_TERMS
EXHAUSTED_POINTS = [
    (33.3719 + 1.7583j, -6.7126 + 0.9585j, 12.6605 + 2.2963j,
     0.5359 - 0.9785j),
    (38.2278 + 0.4843j, -0.0827 - 2.1601j, 11.1948 + 2.9726j,
     0.5074 + 1.1153j),
]


def test_stepped_last_resort(monkeypatch):
    """Points no series region serves are Taylor steps of the
    hypergeometric equation, within 1e-12 of 40-digit mpmath (worst
    5.1e-15).  Where the one region in reach runs out of terms, its error
    is raised, naming the 1/w connection, and the last resort is not
    taken.  The model path never takes it: the standard alpha = 3 sweep at
    l = 30, 60, 90 and 95 (v up to 7.1e3, across the hand-over and the
    reflected series' reach) and a dispersion report."""
    calls = []
    original = Hyp2F1._stepped

    def spy(self, w):
        calls.append(w)
        return original(self, w)

    monkeypatch.setattr(Hyp2F1, "_stepped", spy)
    for a, b, c, w, side in STEPPED_POINTS:
        calls.clear()
        got = gauss_2f1(a, b, c, w, cut_side=side)
        assert len(calls) == 1, (a, b, c, w)
        with mp.workdps(40):
            z = mp.mpc(w.real, (side or 0) * mp.mpf("1e-60") + w.imag)
            ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), z))
        assert abs(got - ref) <= 1e-12 * abs(ref), (a, b, c, w, side)
    calls.clear()
    for a, b, c, w in EXHAUSTED_POINTS:
        with pytest.raises(NonConvergent) as info:
            gauss_2f1(a, b, c, w)
        assert str(info.value) == (f"hypergeometric series exhausted"
                                   f" {specfun.MAX_TERMS} terms in the 1/w"
                                   f" connection")
    alpha, top = STANDARD_SWEEP_RANGES[0]
    for l in (30.0, 60.0, 90.0, 95.0):
        sweep(standard_model(alpha, l=l), [top * k / 100 for k in range(101)])
    series = energy_series(Fraction(3), 4)
    dispersion_report(fit_model(series), series)
    assert calls == []


def test_large_c_raises_where_no_region_serves():
    """At c = 150 every Gamma product of a connection overflows.  Where no
    region in reach gives a value, NumericalError is raised, not the last
    resort's value, which is far off there: 5.2e24 - 7.5e24i at 2 + i and
    4.0e69 - 6.5e69i at 16 + i0, where mpmath gives 1.0047 + 0.0024i and
    1.0444 + 0.00014i."""
    for w, side in ((2 + 1j, None), (16.0, 1), (16.0, -1)):
        with pytest.raises(NumericalError):
            gauss_2f1(0.5, 0.7, 150, w, cut_side=side)


@pytest.mark.parametrize("c, x, side", [(150, 16.0, 1), (150, 16.0, -1),
                                        (145, 3.0, 1)])
def test_reflected_series_gamma_overflow_names_formula_and_input(c, x, side):
    """On the cut, where Gamma(c) of the DLMF 15.2.3 discontinuity
    overflows (from Re c = 142.58), the error names that formula and a, b, c
    as a failing region names its formula."""
    message = (f"gamma overflows a float at z = {complex(c)} in the"
               " DLMF 15.2.3 discontinuity (reflected series)"
               f" at a=(0.5+0j), b=(0.7+0j), c={complex(c)}")
    with pytest.raises(NumericalError) as info:
        gauss_2f1(0.5, 0.7, c, x, cut_side=side)
    assert type(info.value) is NumericalError
    assert str(info.value) == message


# (a, b, c, w, cut_side) served first by each region and each connection's
# log entry, with the formula that a failing sum there is reported in
ROUTE_MESSAGES = [
    ((0.3, 1.2, 2.7, 0.4 + 0.2j, None),
     "hypergeometric series exhausted 0 terms in the defining series"),
    ((0.7, 1.1, 2.9, -1.0 + 0.5j, None),
     "hypergeometric series exhausted 0 terms in the w/(w-1) series"),
    ((0.3, 0.9, 4.75, 0.8 + 0.05j, None),
     "hypergeometric series exhausted 0 terms in the 1-1/w connection"),
    ((0.6, 0.8, 4.4, 1.5, -1), "logarithmic tail exhausted 0 terms"
     " in the log connection (m=3) at 1-1/w"),
    ((0.3, 1.7, 2.4, 5.0 + 3.0j, None),
     "hypergeometric series exhausted 0 terms in the 1/w connection"),
    ((0.35, 1.35, 0.8, cmath.rect(2.1, 0.6), None), "logarithmic tail"
     " exhausted 0 terms in the log connection (m=1) at 1/w"),
]


@pytest.mark.parametrize("point,message", ROUTE_MESSAGES)
def test_series_failure_names_its_route(monkeypatch, point, message):
    """Where the serving region's sum runs out of terms (MAX_TERMS = 0)
    and no later region serves, its error is raised, naming the region's
    formula, and for a log entry its m; the last resort is not tried."""
    monkeypatch.setattr(specfun, "MAX_TERMS", 0)
    monkeypatch.setattr(Hyp2F1, "_stepped",
                        lambda self, w: pytest.fail("last resort taken"))
    a, b, c, w, side = point
    with pytest.raises(NonConvergent) as info:
        gauss_2f1(a, b, c, w, cut_side=side)
    assert str(info.value) == message


def public_points():
    """(class, a, b, c, w, cut_side) drawn once (random.Random(41)): 60
    generic points; c - a - b = m for every m from -35 to 35, exact and
    1e-10 and 1e-6 past it; 30 with b - a an integer from 0 to 6.  Upper
    parameters in [-2, 2] + [-1.5, 1.5]i, w near 1 for most of the first
    two groups, off the axis up to |w| = 4 or on the cut."""
    rng = random.Random(41)

    def upper():
        return complex(rng.uniform(-2, 2),
                       rng.uniform(-1.5, 1.5) if rng.random() < 0.7 else 0.0)

    def point(near_one):
        if near_one and rng.random() < 0.6:
            return 1 + cmath.rect(rng.uniform(0.03, 0.85),
                                  rng.uniform(-math.pi, math.pi)), None
        if rng.random() < 0.8:
            return cmath.rect(rng.uniform(0.05, 4.0),
                              rng.uniform(-math.pi, math.pi)), None
        return complex(rng.uniform(1.01, 4.0)), rng.choice((1, -1))

    points = []
    for _ in range(60):
        a, b = upper(), upper()
        c = complex(rng.uniform(-3, 5), rng.uniform(-1.5, 1.5))
        points.append(("generic", a, b, c, *point(True)))
    for label, eps in (("exact", 0.0), ("+1e-10", 1e-10), ("+1e-6", 1e-6)):
        for m in range(-35, 36):
            a, b = upper(), upper()
            points.append((f"c-a-b {label}", a, b, a + b + m + eps,
                           *point(True)))
    for _ in range(30):
        a = upper()
        c = complex(rng.uniform(-3, 5), rng.uniform(-1.5, 1.5))
        points.append(("b-a exact", a, a + rng.randint(0, 6), c,
                       *point(False)))
    return points


# the worst relative error per class of public_points() against 30-digit
# mpmath, rounded up; with the 1 - w connection and the Euler transform in
# place of the 1 - 1/w connection it was 3.3e-13, 3.0e-7, 1.7e-4, 2.0e-2
# and 7.6e-10.  Near an integer c - a - b both forms cancel (+1e-10 and
# +1e-6), and at c ~ -30 the series' terms grow large before they decay.
PUBLIC_WORST = {"generic": 2e-13, "c-a-b exact": 1e-13, "c-a-b +1e-10": 2e-4,
                "c-a-b +1e-6": 3e-3, "b-a exact": 2e-14}


def test_public_points_against_mpmath():
    """303 random public values, per class within PUBLIC_WORST of 30-digit
    mpmath."""
    worst = dict.fromkeys(PUBLIC_WORST, 0.0)
    for cls, a, b, c, w, side in public_points():
        got = gauss_2f1(a, b, c, w, cut_side=side)
        with mp.workdps(30):
            z = mp.mpc(w.real, (side or 0) * mp.mpf("1e-40") + w.imag)
            ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), z))
        worst[cls] = max(worst[cls], abs(got - ref) / abs(ref))
    assert all(worst[cls] <= PUBLIC_WORST[cls] for cls in worst), worst


@given(
    ar=st.floats(-2, 2), ai=st.floats(-2, 2),
    br=st.floats(-2, 2), bi=st.floats(-2, 2),
    cr=st.floats(0.5, 4), ci=st.floats(-2, 2),
    r=st.floats(0, 0.85), th=st.floats(0, 2 * math.pi),
)
@settings(max_examples=60, deadline=None)
def test_euler_transformation_property(ar, ai, br, bi, cr, ci, r, th):
    """F(a,b;c;w) = (1-w)^(c-a-b) F(c-a,c-b;c;w) inside the unit disk."""
    a, b, c = complex(ar, ai), complex(br, bi), complex(cr, ci)
    w = cmath.rect(r, th)
    lhs = gauss_2f1(a, b, c, w)
    rhs = (1 - w) ** (c - a - b) * gauss_2f1(c - a, c - b, c, w)
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1e-30)


def test_log_connection_steps_aside_for_subnormal_parameter():
    """At c - a - b = 0 with b subnormal, psi(b) overflows and the
    logarithmic connection does not apply; the next region does."""
    b = 2.2250738585e-313
    for w in (0.75, complex(0.8, 0.3)):
        got = gauss_2f1(1.0, b, 1.0, w)
        assert got == gauss_2f1(b, 1.0, 1.0, w)
        assert abs(got - 1.0) <= 1e-15  # (1 - w)^(-b)


@given(
    ar=st.floats(-2, 2), br=st.floats(-2, 2), cr=st.floats(0.5, 4),
    r=st.floats(0, 0.85), th=st.floats(0, 2 * math.pi),
)
@settings(max_examples=40, deadline=None)
def test_parameter_symmetry_property(ar, br, cr, r, th):
    w = cmath.rect(r, th)
    assert gauss_2f1(ar, br, cr, w) == gauss_2f1(br, ar, cr, w)
