"""Complex Gamma and Gauss 2F1 against mpmath oracles and exact identities."""

import cmath
import math
import random

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starkdim import (
    STANDARD_SWEEP_RANGES,
    complex_gamma,
    gauss_2f1,
    rising_factorial,
    sweep,
)
from starkdim import specfun
from starkdim.errors import (
    NonConvergent,
    NumericalError,
    OnBranchCut,
    OutOfRange,
    PoleError,
)
from starkdim.specfun import Hyp2F1, gauss_2f1_cut

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
    """Gamma(142) = 141! is about 1.9e243; from Re z ~ 143 the Lanczos
    power t^(z - 1/2) overflows before exp(-t) scales it back."""
    assert complex_gamma(142.0).real == pytest.approx(
        float(mp.factorial(141)), rel=1e-12)
    with pytest.raises(NumericalError, match=r"z = \(200\+0j\)"):
        complex_gamma(200.0)


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


def test_rising_factorial():
    assert rising_factorial(3, 4) == 3 * 4 * 5 * 6
    assert rising_factorial(0.5, 3) == pytest.approx(0.5 * 1.5 * 2.5, rel=1e-15)
    assert rising_factorial(2 + 1j, 0) == 1
    with pytest.raises(OutOfRange):
        rising_factorial(2.0, -1)


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


def test_2f1_special_values():
    # -ln(1-w)/w
    assert gauss_2f1(1, 1, 2, 0.5) == pytest.approx(2 * math.log(2), abs=1e-12)
    # Gauss summation at w = 1
    assert gauss_2f1(0.5, 0.5, 2, 1) == pytest.approx(4 / math.pi, abs=1e-12)
    # ... is exactly real for a conjugate pair (Im F on the cut ~ (w-1)^mu)
    assert gauss_2f1(0.58 - 0.18j, 0.58 + 0.18j, 31.16, 1).imag == 0.0
    # terminating series is exact everywhere
    w = complex(5.0, 2.0)
    got = gauss_2f1(-3, 2.5, 1.7, w)
    assert abs(got - ref2f1(-3, 2.5, 1.7, w)) <= 1e-12 * abs(got)
    # degenerate closed form on the cut
    got = gauss_2f1(1, 1, 2, 2, cut_side=+1)
    ref = complex(0, math.pi / 2)
    assert abs(got - ref) <= 1e-9 * abs(ref)


def test_2f1_cut_requires_side():
    with pytest.raises(OnBranchCut):
        gauss_2f1(0.6, 0.8, 4.4, 2.5)
    # off the cut no side is needed
    gauss_2f1(0.6, 0.8, 4.4, 0.5)
    with pytest.raises(OnBranchCut):
        gauss_2f1_cut(0.6, 0.8, 4.4, 1.5)
    assert gauss_2f1_cut(0.6, 0.8, 4.4, -0.5) == gauss_2f1(0.6, 0.8, 4.4, 0.5)


def test_2f1_cut_offset_entry_point():
    """gauss_2f1 on the cut is gauss_2f1_cut at v = w - 1; a polynomial
    needs no side and stays real."""
    h1 = 0.57715234937124937 - 0.17707420101201338j
    c = 2 * h1.real + 30.0
    for x in (1.3, 10.9, 11.2, 40.0):
        for side in (1, -1):
            assert gauss_2f1(h1, h1.conjugate(), c, x, cut_side=side) == (
                gauss_2f1_cut(h1, h1.conjugate(), c, x - 1.0, cut_side=side)
            )
    assert gauss_2f1_cut(-3, 2.5, 1.7, 4.0, cut_side=1) == gauss_2f1(-3, 2.5, 1.7, 5.0)


def test_reflected_series_only_below_seam(models, monkeypatch):
    """Over the four standard grids the reflected series runs only where
    x = 1 + v <= 11: 51 times in all."""
    seen = []
    original = specfun._reflection_series

    def spy(a, b, c, v):
        seen.append(1.0 + v)
        return original(a, b, c, v)

    monkeypatch.setattr(specfun, "_reflection_series", spy)
    for alpha, top in STANDARD_SWEEP_RANGES:
        sweep(models[alpha], np.linspace(0.0, top, 101))
    assert len(seen) == 51
    assert max(seen) <= 11.0


def test_reflected_series_failure_keeps_generic_value(monkeypatch):
    """If the reflected series does not converge, an on-cut value is the
    generic one nudged to the chosen side, and nothing is raised."""
    calls = []

    def fail(*args):
        calls.append(args)
        raise NonConvergent("forced")

    monkeypatch.setattr(specfun, "_reflection_series", fail)
    h1 = 0.57715234937124937 - 0.17707420101201338j
    c = 2 * h1.real + 30.0
    for x in (1.3, 5.0):
        for side in (1, -1):
            got = gauss_2f1(h1, h1.conjugate(), c, x, cut_side=side)
            generic = gauss_2f1(h1, h1.conjugate(), c, complex(x, side * 1e-300))
            assert got == generic
    assert len(calls) == 4


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


@pytest.mark.parametrize("m", [0, 1, 2, 30])
@pytest.mark.parametrize("upper", [(0.6, 0.8), (0.58 + 0.18j, 0.58 - 0.18j)])
def test_log_connection_against_mpmath(monkeypatch, m, upper):
    """Integer c - a - b = m >= 0 near w = 1 matches 40-digit mpmath,
    off the cut and on both of its sides."""
    a, b = upper
    c = (a + b + m).real
    calls = []
    original = Hyp2F1._log

    def spy(self, w):
        calls.append(self._log_m)
        return original(self, w)

    monkeypatch.setattr(Hyp2F1, "_log", spy)
    points = [(1.0 + r * cmath.exp(1j * th), None)
              for r in (0.1, 0.3, 0.45) for th in (0.7, 2.0, 3.1, -1.2)]
    points += [(x, side) for x in (1.05, 1.25, 1.45) for side in (1, -1)]
    worst = 0.0
    for w, side in points:
        w = complex(w)
        assert abs(1 - w) < min(abs(w), abs(w / (w - 1)), abs(1 / w))
        calls.clear()
        got = gauss_2f1(a, b, c, w, cut_side=side)
        assert calls == [m]
        with mp.workdps(40):
            z = mp.mpc(w.real, (side or 0) * mp.mpf("1e-60") + w.imag)
            ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), c, z))
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-13


def test_nudge_fallback_accuracy(monkeypatch):
    """Integer b - a with only the 1/w region in reach takes the
    parameter-nudge average; against 40-digit mpmath it keeps the accuracy
    the gauss_2f1 docstring states."""
    calls = []
    original = Hyp2F1.__dict__["_nudged"].func

    def spy(self):
        calls.append((self.a, self.b))
        return original(self)

    monkeypatch.setattr(Hyp2F1, "_nudged", property(spy))
    errors = []
    for a in (0.35, -0.6 + 0.5j, 2.2 + 0.3j):
        for d in range(4):
            for c, w in ((0.8, cmath.rect(2.1, 0.6)),
                         (3.1, cmath.rect(1.9, -1.1))):
                calls.clear()
                got = gauss_2f1(a, a + d, c, w)
                assert len(calls) == 1
                with mp.workdps(40):
                    ref = complex(mp.hyp2f1(mp.mpc(a), mp.mpc(a + d), c,
                                            mp.mpc(w)))
                errors.append(abs(got - ref) / abs(ref))
    errors.sort()
    assert errors[len(errors) // 2] <= 1e-6
    assert errors[-1] <= 1.1e-4


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
