"""Seeded workloads: op generators, op execution and output checks.

Each workload is a closed loop: one caller issues the next op when the
previous one returns.  A run repeats passes; every pass draws fresh inputs
from ``random.Random(f"{workload}:{seed}:{pass}")``, stratified so that
passes cost about the same, then shuffles the op order.  The library and CLI
only ever see the generated inputs.

figures     in-process ``starkdim.cli.run`` ops writing with ``--output``:
            ``reproduce --figure 1/2/3`` plus seeded ``sweep`` and ``wkb``
            grids that span each dimension's ionization onset.
dispersion  ``dispersion_report(fit_model(energy_series(a, 4)), series)`` at
            alpha = 3, 5/2, 2, 3/2 and at one seeded rational in [3/2, 3]
            per pass.
series      ``energy_series`` at seeded exact rationals (orders 12-20) and at
            seeded floats k/64 in (1.2, 6] (order 20), and
            ``symbolic_energy_series`` at orders 4, 5 and 6.

Checks run after the timed passes and never change the inputs or the
tolerances; a failing check marks its op failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import starkdim.cli
import starkdim.coeffs
import starkdim.resum
import starkdim.validate
import starkdim.wkb

GRID = 101
SMOKE_GRID = 11
ALPHA_LO, ALPHA_HI = Fraction(3, 2), Fraction(3)
DISPERSION_FIXED = (Fraction(3), Fraction(5, 2), Fraction(2), Fraction(3, 2))
# criterion 08: largest relative error of the moment integral per n
DISPERSION_BOUNDS = {2: 0.05, 3: 0.05, 4: 0.10}
ORACLE_REL_TOL = 1e-10
ORACLE_SAMPLE = 16
# Gamma below this underflows in double precision; compared absolutely
GAMMA_FLOOR = 1e-300
FLOAT_REL_TOL = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class Op:
    id: int
    pass_index: int
    kind: str
    inputs: tuple
    latency: float = 0.0
    probe: float = 0.0
    error: str | None = None
    output: object = None
    nbytes: int = 0
    digest: str | None = None
    traced: bool = False
    failures: list = field(default_factory=list)


class Workload:
    """Base of the three workloads: seeded pass generation."""

    name = ""

    def __init__(self, outdir, seed, smoke):
        self.outdir = outdir
        self.seed = seed
        self.smoke = smoke

    def make_pass(self, pass_index):
        """The (kind, inputs) specs of one pass, in the order issued."""
        rng = random.Random(f"{self.name}:{self.seed}:{pass_index}")
        specs = self.draw(rng, pass_index)
        rng.shuffle(specs)
        return specs

    def collect(self, op, result):
        op.output = result


def _strata(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal slices of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _rational(rng, value, lo, hi, denominators):
    """A rational P/Q near ``value`` with Q drawn from ``denominators``,
    kept inside [lo, hi]."""
    q = rng.choice(denominators)
    p = round(value * q)
    p = min(max(p, math.ceil(lo * q)), math.floor(hi * q))
    return Fraction(p, q)


def _interp_log(p, table):
    """Piecewise-linear interpolation of log(value) in p over (p_k, v_k)."""
    table = sorted(table)
    for (p0, v0), (p1, v1) in zip(table, table[1:]):
        if p0 <= p <= p1:
            t = (p - p0) / (p1 - p0)
            return math.exp((1 - t) * math.log(v0) + t * math.log(v1))
    raise ValueError(f"p={p} outside the tabulated range")


def _channel(alpha) -> float:
    return (float(alpha) - 1.0) / 2.0


# ---------------------------------------------------------------------------
# figures


class Figures(Workload):
    name = "figures"

    def __init__(self, outdir, seed, smoke):
        super().__init__(outdir, seed, smoke)
        self.tops = [(_channel(a), top)
                     for a, top in starkdim.resum.STANDARD_SWEEP_RANGES]
        ranges = starkdim.wkb.LANDAU_COMPARISON_RANGES
        self.los = [(_channel(a), lo) for a, lo, _ in ranges]
        self.his = [(_channel(a), hi) for a, _, hi in ranges]

    def draw(self, rng, pass_index):
        grid = SMOKE_GRID if self.smoke else GRID
        figures = (1,) if self.smoke else (1, 2, 3)
        specs = [("reproduce", ("reproduce", "--figure", str(f)))
                 for f in figures]
        for value in _strata(rng, 1.5, 3.0, 1 if self.smoke else 8):
            alpha = _rational(rng, value, ALPHA_LO, ALPHA_HI, range(2, 13))
            top = _interp_log(_channel(alpha), self.tops)
            specs.append(("sweep", ("sweep", "--alpha", str(alpha),
                                    "--fields", f"0:{top:.6g}:{grid}")))
        for value in _strata(rng, 1.5, 3.0, 1 if self.smoke else 4):
            alpha = _rational(rng, value, ALPHA_LO, ALPHA_HI, range(2, 13))
            lo = _interp_log(_channel(alpha), self.los)
            hi = _interp_log(_channel(alpha), self.his)
            specs.append(("wkb", ("wkb", "--alpha", str(alpha),
                                  "--fields", f"{lo:.6g}:{hi:.6g}:{grid}")))
        return specs

    def call(self, op):
        path = os.path.join(self.outdir, f"{op.kind}.out")
        argv = list(op.inputs) + ["--output", path]
        return lambda: starkdim.cli.run(argv)

    def collect(self, op, result):
        if result != 0:
            op.error = f"exit code {result}"
            return
        with open(os.path.join(self.outdir, f"{op.kind}.out"), "rb") as f:
            data = f.read()
        op.nbytes = len(data)
        if op.kind == "reproduce":
            op.output = data if op.pass_index == 0 else None
            op.digest = hashlib.sha256(data).hexdigest()
        else:
            op.output = data.decode("utf-8")

    def properties(self, ops):
        return _fit_mix(ops, self._fitted_alphas)

    @staticmethod
    def _fitted_alphas(op):
        if op.kind == "reproduce":
            figure = int(op.inputs[2])
            fixed = [a for a, _ in starkdim.resum.STANDARD_SWEEP_RANGES]
            return {1: [3.0], 2: fixed, 3: fixed}[figure]
        return [Fraction(op.inputs[2])]

    def check(self, ops, rng):
        from oracle import OracleInapplicable, oracle_energy

        digests = {}
        rows = []
        for op in ops:
            if op.error:
                continue
            if op.kind == "reproduce":
                ref = digests.setdefault(op.inputs[2], op.digest)
                if op.digest != ref:
                    op.failures.append(
                        f"figure {op.inputs[2]} bytes differ between passes")
                if op.output is not None:
                    rows.extend(_reproduce_rows(op))
                continue
            start, stop, count = op.inputs[4].split(":")
            table = list(csv.DictReader(io.StringIO(op.output)))
            if len(table) != int(count):
                op.failures.append(f"{len(table)} rows, expected {count}")
                continue
            if op.kind == "sweep":
                alpha = Fraction(op.inputs[2])
                rows.extend((op, alpha, float(r["field"]), float(r["delta"]),
                             float(r["gamma"])) for r in table)
        rows = [r for r in rows if r[2] > 0.0]
        sample = rng.sample(rows, min(len(rows), ORACLE_SAMPLE))
        models = {}
        for op, alpha, fld, delta, gamma in sample:
            key = (type(alpha), alpha)
            if key not in models:
                models[key] = starkdim.resum.standard_model(alpha)
            try:
                ref = oracle_energy(models[key], fld)
            except OracleInapplicable as exc:
                op.failures.append(f"alpha={alpha} F={fld}: no oracle, {exc}")
                continue
            ref_delta, ref_gamma = ref.real, -2.0 * ref.imag
            if abs(delta - ref_delta) > ORACLE_REL_TOL * abs(ref_delta):
                op.failures.append(f"alpha={alpha} F={fld}: Delta {delta!r}"
                                   f" vs oracle {ref_delta!r}")
            if (abs(gamma - ref_gamma)
                    > max(ORACLE_REL_TOL * abs(ref_gamma), GAMMA_FLOOR)):
                op.failures.append(f"alpha={alpha} F={fld}: Gamma {gamma!r}"
                                   f" vs oracle {ref_gamma!r}")
        return {"oracle_points": len(sample)}


def _reproduce_rows(op):
    """(op, alpha, field, delta, gamma) rows of figures 1 and 2."""
    doc = json.loads(op.output)
    figure = doc["meta"]["figure"]
    if figure == 1:
        return [(op, 3.0, r["field"], r["delta"], r["gamma"])
                for r in doc["data"]]
    if figure == 2:
        return [(op, r["alpha"], r["field"], r["delta"], r["gamma"])
                for r in doc["data"]]
    return []


def _fit_mix(ops, fitted_alphas):
    """Share of fits whose dimension was already fitted earlier in the run,
    counted from the generated inputs."""
    seen = set()
    fits = repeats = 0
    for op in ops:
        for alpha in fitted_alphas(op):
            key = Fraction(alpha)
            fits += 1
            repeats += key in seen
            seen.add(key)
    return {"fits": fits, "fit_repeat_share": repeats / fits if fits else 0.0}


# ---------------------------------------------------------------------------
# dispersion


class Dispersion(Workload):
    name = "dispersion"

    def draw(self, rng, pass_index):
        if self.smoke:
            return [("dispersion", (Fraction(3),))]
        specs = [("dispersion", (a,)) for a in DISPERSION_FIXED]
        # a golden-ratio sequence from a seeded start spreads the passes'
        # draws evenly over [3/2, 3], however many passes a run makes
        start = random.Random(f"{self.name}:{self.seed}").random()
        u = (start + pass_index * GOLDEN) % 1.0
        alpha = _rational(rng, 1.5 + 1.5 * u, ALPHA_LO, ALPHA_HI, range(2, 13))
        specs.append(("dispersion", (alpha,)))
        return specs

    def call(self, op):
        alpha = op.inputs[0]

        def report():
            series = starkdim.coeffs.energy_series(alpha, 4)
            model = starkdim.resum.fit_model(series)
            return starkdim.validate.dispersion_report(model, series)

        return report

    def properties(self, ops):
        return _fit_mix(ops, lambda op: [op.inputs[0]])

    def check(self, ops, rng):
        worst = 0.0
        for op in ops:
            if op.error:
                continue
            entries = {e.n: e for e in op.output.entries}
            if set(entries) != set(DISPERSION_BOUNDS):
                op.failures.append(f"entries for n={sorted(entries)}")
            for n, bound in DISPERSION_BOUNDS.items():
                if n in entries:
                    err = entries[n].relative_error
                    worst = max(worst, err)
                    if not err <= bound:
                        op.failures.append(f"alpha={op.inputs[0]} n={n}:"
                                           f" relative error {err} > {bound}")
        return {"worst_relative_error": worst}


# ---------------------------------------------------------------------------
# series


class Series(Workload):
    name = "series"

    def draw(self, rng, pass_index):
        if self.smoke:
            return [("exact", (Fraction(5, 2), 6)), ("float", (2.5, 6)),
                    ("symbolic", (2,))]
        specs = []
        orders = [rng.randint(lo, lo + 2) for lo in (12, 15, 18)]
        for order, q in zip(orders, rng.sample((1, 2, 3, 4), 3)):
            p = rng.randint(math.floor(Fraction(6, 5) * q) + 1, 6 * q)
            specs.append(("exact", (Fraction(p, q), order)))
        for value in _strata(rng, 1.2, 6.0, 12):
            k = min(max(round(value * 64), 77), 384)
            specs.append(("float", (k / 64, 20)))
        specs.extend(("symbolic", (order,)) for order in (4, 5, 6))
        return specs

    def call(self, op):
        if op.kind == "symbolic":
            return lambda: starkdim.coeffs.symbolic_energy_series(*op.inputs)
        return lambda: starkdim.coeffs.energy_series(*op.inputs)

    def properties(self, ops):
        mix = {}
        for op in ops:
            entry = mix.setdefault(op.kind, {"ops": 0, "orders": {}})
            entry["ops"] += 1
            order = op.inputs[-1]
            entry["orders"][order] = entry["orders"].get(order, 0) + 1
        return {"ring_order_mix": mix}

    def check(self, ops, rng):
        reference = starkdim.coeffs.reference_factor_polynomial
        tables = [op for op in ops if op.kind == "symbolic" and not op.error]
        for op in tables:
            for n in range(1, min(op.inputs[0], 4) + 1):
                if op.output.factor_polynomial(n) != reference(n):
                    op.failures.append(f"factor polynomial n={n} differs"
                                       " from the reference table")
        table = max(tables, key=lambda op: op.inputs[0], default=None)
        compared = 0
        for op in ops:
            if op.kind != "exact" or op.error:
                continue
            alpha, order = op.inputs
            p = (alpha - 1) / 2
            coeffs = op.output.e_coeffs
            if coeffs[0] != -1 / (2 * p * p):
                op.failures.append(f"alpha={alpha}: E_0 = {coeffs[0]}")
            if table is None:
                continue
            for n in range(1, min(order, table.inputs[0]) + 1):
                compared += 1
                if coeffs[n] != table.output.evaluate(n, alpha):
                    op.failures.append(f"alpha={alpha}: E_{2 * n} differs"
                                       " from the symbolic table")
        floats = [op for op in ops if op.kind == "float" and not op.error]
        # exact order 20 at a k/64 dimension takes seconds: check one op
        checked = floats if self.smoke else rng.sample(floats,
                                                       min(1, len(floats)))
        for op in checked:
            alpha, order = op.inputs
            exact = starkdim.coeffs.energy_series(Fraction(alpha), order)
            for n, (x, ref) in enumerate(zip(op.output.e_coeffs,
                                             exact.e_coeffs)):
                if abs(x - float(ref)) > FLOAT_REL_TOL * abs(float(ref)):
                    op.failures.append(f"alpha={alpha}: float E_{2 * n} {x!r}"
                                       f" vs exact {float(ref)!r}")
        return {"exact_vs_symbolic_terms": compared,
                "float_vs_exact_ops": len(checked)}


WORKLOADS = {w.name: w for w in (Figures, Dispersion, Series)}
