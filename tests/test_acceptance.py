"""End-to-end acceptance run: twelve numbered criteria, one line each.

Every criterion is its own test, so the standard report carries a pass or
fail entry per criterion; each test additionally prints a single
``criterion NN: PASS/FAIL`` summary line (visible with ``-s`` or ``-rA``).
Stated runtime budgets are measured inside the tests they belong to.
"""

import cmath
import math
import time
from fractions import Fraction

import numpy as np

from starkdim import (
    LANDAU_COMPARISON_RANGES,
    STANDARD_SWEEP_RANGES,
    EnergySeries,
    HypModel,
    complex_gamma,
    critical_field,
    dispersion_report,
    energy_series,
    fit_model,
    fit_round_trip_residual,
    gauss_2f1,
    keldysh_exponent,
    landau_calibrated_rate,
    linear_tail_fit,
    model_coefficients,
    reference_factor_polynomial,
    slope_exponent,
    standard_model,
    sweep,
    symbolic_energy_series,
    wkb_exponent,
)
from starkdim.cli import run

ALPHAS = (3.0, 2.5, 2.0, 1.5)

_CACHE: dict = {}


def _model(alpha):
    if ("model", alpha) not in _CACHE:
        _CACHE[("model", alpha)] = standard_model(alpha)
    return _CACHE[("model", alpha)]


def verdict(num: str, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_symbolic_factor_table():
    t0 = time.perf_counter()
    table = symbolic_energy_series(4)
    exact = all(
        table.factor_polynomial(n) == reference_factor_polynomial(n)
        for n in range(1, 5)
    )
    elapsed = time.perf_counter() - t0
    verdict("01", exact and elapsed < 5.0,
            f"four factor polynomials exact, {elapsed:.2f}s")


def test_criterion_02_known_evaluations():
    table = symbolic_energy_series(3)
    known = (
        (1, Fraction(3), Fraction(-9, 4)),
        (1, Fraction(2), Fraction(-21, 256)),
        (2, Fraction(3), Fraction(-3555, 64)),
        (3, Fraction(3), Fraction(-2512779, 512)),
    )
    sym_ok = all(table.evaluate(n, a) == want for n, a, want in known)
    num3 = energy_series(3.0, 3).e_coeffs
    num2 = energy_series(2.0, 1).e_coeffs
    numeric = (num3[1], num2[1], num3[2], num3[3])
    num_ok = all(
        abs(v - float(want)) <= 1e-12 * abs(float(want))
        for v, (_, _, want) in zip(numeric, known)
    )
    verdict("02", sym_ok and num_ok,
            "exact in symbolic mode, 1e-12 relative in numeric mode")


def test_criterion_03_unit_dimension_degeneracy():
    table = symbolic_energy_series(4)
    ok = all(table.evaluate(n, Fraction(1)) == 0 for n in range(1, 5))
    verdict("03", ok, "E_2..E_8 vanish identically at alpha = 1")


def test_criterion_04_fit_round_trip():
    t0 = time.perf_counter()
    residuals = []
    for alpha in ALPHAS:
        series = energy_series(alpha, 4)
        model = fit_model(series, l=30.0)
        residuals.append(fit_round_trip_residual(model, series))
    planted = HypModel(h1=0.45 - 0.21j, h2=0.45 + 0.21j,
                      h3=complex(1200.0), h4=complex(3.7e-28),
                      l=30.0, e0=-0.5, alpha=3.0)
    series = EnergySeries(
        alpha=3.0, order=4,
        e_coeffs=(planted.e0,)
        + tuple(v.real for v in model_coefficients(planted, 4)),
    )
    fitted = fit_model(series, l=30.0)
    recovery = max(
        abs(getattr(fitted, name) - getattr(planted, name))
        / abs(getattr(planted, name))
        for name in ("h1", "h2", "h3", "h4")
    )
    elapsed = time.perf_counter() - t0
    verdict("04",
            max(residuals) < 1e-10 and recovery < 1e-9 and elapsed < 1.0,
            f"max residual {max(residuals):.1e}, synthetic recovery "
            f"{recovery:.1e}, {elapsed:.2f}s")


def test_criterion_05_interior_shift_minimum():
    grid = np.linspace(0.0, 1.0, 101)
    points = sweep(_model(3.0), grid)
    deltas = [pt.delta for pt in points]
    k = int(np.argmin(deltas))
    interior = 0 < k < len(points) - 1
    location = points[k].field
    verdict("05", interior and abs(location - 0.7) <= 0.1,
            f"shift minimum at field {location:.3f}")


def test_criterion_06_critical_fields():
    targets = dict(zip(ALPHAS, (0.12, 0.33, 1.3, 10.2)))
    t0 = time.perf_counter()
    results = {}
    for alpha, top in STANDARD_SWEEP_RANGES:
        points = sweep(standard_model(alpha),
                       np.linspace(0.0, top, 101))
        results[alpha] = critical_field(points)
    elapsed = time.perf_counter() - t0
    within = all(
        abs(results[a] - targets[a]) <= 0.2 * targets[a] for a in ALPHAS
    )
    summary = ", ".join(f"{a}: {results[a]:.3f}" for a in ALPHAS)
    verdict("06", within and elapsed < 10.0,
            f"{summary}; {elapsed:.2f}s")


def test_criterion_07_slope_exponent():
    pairs = []
    for alpha, top in STANDARD_SWEEP_RANGES:
        points = sweep(_model(alpha), np.linspace(0.0, top, 101))
        pairs.append(((alpha - 1.0) / 2.0, linear_tail_fit(points).slope))
    gamma = slope_exponent(pairs)
    verdict("07", abs(gamma - 1.4) <= 0.2, f"gamma = {gamma:.4f}")


def test_criterion_08_dispersion_relation():
    t0 = time.perf_counter()
    worst = {2: 0.0, 3: 0.0, 4: 0.0}
    for alpha in ALPHAS:
        series = energy_series(alpha, 4)
        report = dispersion_report(_model(alpha), series)
        for entry in report.entries:
            worst[entry.n] = max(worst[entry.n], entry.relative_error)
    elapsed = time.perf_counter() - t0
    ok = (worst[2] <= 0.05 and worst[3] <= 0.05 and worst[4] <= 0.10
          and elapsed < 60.0)
    verdict("08", ok,
            f"worst relative errors n=2: {worst[2]:.1e}, n=3: {worst[3]:.1e},"
            f" n=4: {worst[4]:.1e}; {elapsed:.1f}s")


def test_criterion_09_semiclassical_asymptotics():
    # (a) the numeric tunneling exponent approaches the universal term
    ratios = {}
    for p, field in ((1.0, 0.004), (0.5, 0.01)):
        ratios[p] = wkb_exponent(p, field) / (keldysh_exponent(p) / field)
    part_a = all(0.9 <= r <= 1.1 for r in ratios.values())
    # (b) exponent coefficient identity
    part_b = all(
        abs(keldysh_exponent(p) - 2.0 / (3.0 * p**3))
        <= 1e-14 * (2.0 / (3.0 * p**3))
        for p in (1.0, 0.75, 0.5, 0.25, 1.5)
    )
    # (c) calibrated closed-form rate vs the resummed rate
    part_c = True
    for alpha, lo, hi in LANDAU_COMPARISON_RANGES:
        p = (alpha - 1.0) / 2.0
        points = sweep(_model(alpha), np.geomspace(lo, hi, 101))
        _, curve = landau_calibrated_rate(p, [pt.field for pt in points],
                                          [pt.gamma for pt in points])
        ratio = [rate / pt.gamma for pt, (_, rate) in zip(points, curve)]
        low_half_ok = all(1.0 / 3.0 <= r <= 3.0 for r in ratio[:51])
        overestimates = ratio[-1] > 1.0
        part_c = part_c and low_half_ok and overestimates
    verdict("09", part_a and part_b and part_c,
            f"exponent ratios {ratios[1.0]:.3f}/{ratios[0.5]:.3f}, "
            f"identity to 1e-14, calibrated curve within factor 3 low / "
            f"over at top")


def test_criterion_10_special_functions():
    t0 = time.perf_counter()
    checks = []

    def close(got, want, rel):
        return abs(got - want) <= rel * abs(want)

    checks.append(close(complex_gamma(5.0), 24.0, 1e-12))
    checks.append(close(complex_gamma(0.5), math.sqrt(math.pi), 1e-12))
    checks.append(close(complex_gamma(3.5),
                        15.0 * math.sqrt(math.pi) / 8.0, 1e-12))

    rng = np.random.default_rng(101)
    for _ in range(100):
        z = complex(rng.uniform(-50, 50), rng.uniform(-50, 50))
        if abs(z.imag) < 0.1 and z.real < 0.6:
            continue
        checks.append(close(complex_gamma(z + 1.0),
                            z * complex_gamma(z), 1e-12))
    for _ in range(40):
        z = complex(rng.uniform(-10, 10), rng.uniform(0.05, 10))
        checks.append(close(complex_gamma(z) * complex_gamma(1.0 - z),
                            math.pi / cmath.sin(math.pi * z), 1e-10))

    checks.append(gauss_2f1(0.3, 0.8, 1.7, 0.0) == 1.0)
    checks.append(close(gauss_2f1(1.0, 1.0, 2.0, 0.5),
                        2.0 * math.log(2.0), 1e-12))
    # continuation onto the cut: 1e-9 like the other continuation identities
    checks.append(close(gauss_2f1(1.0, 1.0, 2.0, 2.0, cut_side=+1),
                        complex(0.0, math.pi / 2.0), 1e-9))
    checks.append(close(gauss_2f1(0.5, 0.5, 2.0, 1.0),
                        4.0 / math.pi, 1e-12))

    for _ in range(25):
        a = complex(rng.uniform(-2, 3), rng.uniform(-1, 1))
        b = complex(rng.uniform(-2, 3), rng.uniform(-1, 1))
        c = complex(rng.uniform(1.0, 5.0), rng.uniform(-1, 1))
        r, phi = rng.uniform(0.05, 0.85), rng.uniform(0, 2 * math.pi)
        w = r * cmath.exp(1j * phi)
        lhs = gauss_2f1(a, b, c, w)
        rhs = ((1.0 - w) ** (c - a - b)
               * gauss_2f1(c - a, c - b, c, w))
        checks.append(close(lhs, rhs, 1e-9))
        checks.append(gauss_2f1(a, b, c, w) == gauss_2f1(b, a, c, w))

    for x in (1.3, 2.5, 9.0):
        up = gauss_2f1(0.3, 0.7, 2.2, x, cut_side=+1)
        down = gauss_2f1(0.3, 0.7, 2.2, x, cut_side=-1)
        checks.append(down == up.conjugate())

    elapsed = time.perf_counter() - t0
    verdict("10", all(checks) and elapsed < 5.0,
            f"{len(checks)} identity/value checks, {elapsed:.2f}s")


def test_criterion_11_nonvanishing_ionization():
    grid = np.geomspace(0.01, 1.0, 41)
    points = sweep(_model(3.0), grid)
    ok = all(pt.gamma > 0.0 for pt in points)
    smallest = min(pt.gamma for pt in points)
    verdict("11", ok,
            f"rate positive on log grid down to 0.01 (min {smallest:.2e})")


def test_criterion_12_reproduce_determinism(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code1 = run(["reproduce", "--figure", "2", "--output", str(first)])
    code2 = run(["reproduce", "--figure", "2", "--output", str(second)])
    same = first.read_bytes() == second.read_bytes()
    verdict("12", code1 == 0 and code2 == 0 and same,
            f"two runs, {first.stat().st_size} bytes, bit-identical")
