"""Command-line interface: parsing, formats, exit codes, atomic output."""

import errno
import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import starkdim.resum
from starkdim import (CALIBRATION_FLOOR, LANDAU_COMPARISON_RANGES,
                      energy_series, specfun, standard_model, sweep,
                      symbolic_energy_series, validate, wkb, __version__)
from starkdim.cli import (_linear_grid, _log_grid, _render_csv, _render_json,
                          build_parser, run)
from starkdim.coeffs import format_alpha


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "COMMAND" in out


def test_version_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--version")
    assert code == 0
    assert "starkdim" in out


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "bogus")
    assert code == 2


def test_missing_alpha_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "coeffs")
    assert code == 2


def test_malformed_alpha_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "coeffs", "--alpha", "three")
    assert code == 2


def test_dimension_bound_is_input_error(capsys):
    code, _, err = invoke(capsys, "coeffs", "--alpha", "1")
    assert code == 2
    assert "error:" in err


# a bad value is reported by argparse: usage line, then the argument
BAD_VALUES = {
    ("coeffs", "--alpha", "1"):
        "argument --alpha: dimension must exceed 1 strictly, got 1",
    ("fit", "--alpha", "3", "--l", "4"):
        "argument --l: branch power l must be finite and exceed 4, got 4",
    ("fit", "--alpha", "3", "--l", "inf"):
        "argument --l: branch power l must be finite and exceed 4, got inf",
    ("fit", "--alpha", "3", "--l", "four"):
        "argument --l: not a real number: 'four'",
    ("sweep", "--alpha", "3", "--fields", "0:1:1"):
        "argument --fields: grid needs at least 2 points, got 1",
    ("sweep", "--alpha", "3", "--fields=-1:1:3"):
        "argument --fields: fields need 0 <= start < stop, got -1.0:1.0",
    ("sweep", "--alpha", "3", "--fields", "1:1:3"):
        "argument --fields: fields need 0 <= start < stop, got 1.0:1.0",
    ("coeffs", "--alpha", "3", "--order", "0", "--symbolic"):
        "argument --order: order must lie in 1..20, got 0",
    ("coeffs", "--alpha", "3", "--order", "21"):
        "argument --order: order must lie in 1..20, got 21",
    ("coeffs", "--alpha", "3", "--order=-3"):
        "argument --order: order must lie in 1..20, got -3",
    ("coeffs", "--alpha", "3", "--order", "2.5"):
        "argument --order: not an integer: '2.5'",
    ("sweep", "--alpha", "3", "--fields", "0:1:3", "--bogus"):
        "unrecognized arguments: --bogus",
    ("coeffs", "--alpha", "3", "--l", "50"):
        "unrecognized arguments: --l 50",
}


@pytest.mark.parametrize("argv", sorted(BAD_VALUES), ids="_".join)
def test_bad_value_is_reported_by_argparse(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: starkdim {argv[0]} ")
    assert err.endswith(f"starkdim {argv[0]}: error: {BAD_VALUES[argv]}\n")


def test_unknown_option_before_the_command_gets_top_level_usage(capsys):
    """An argument the top-level parser does not know, before the command,
    is reported with the top-level usage line."""
    code, out, err = invoke(capsys, "--bogus", "sweep", "--alpha", "3",
                            "--fields", "0:1:3")
    assert code == 2
    assert out == ""
    assert err.startswith("usage: starkdim [-h] [--version] COMMAND ...\n")
    assert err.endswith("starkdim: error: unrecognized arguments: --bogus\n")


def test_coeffs_takes_no_branch_power(capsys):
    """Only the commands that fit a model take --l; coeffs fits none."""
    code, out, err = invoke(capsys, "coeffs", "--alpha", "3", "--l", "50")
    assert code == 2
    assert out == ""
    assert err.endswith("error: unrecognized arguments: --l 50\n")


def test_malformed_fields_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "sweep", "--alpha", "3", "--fields", "0:1")
    assert code == 2


def test_infinite_fields_is_input_error(capsys):
    code, _, err = invoke(capsys, "sweep", "--alpha", "2",
                          "--fields", "0:inf:11")
    assert code == 2
    assert "fields must be finite" in err


def test_zero_start_rejected_for_barrier(capsys):
    code, _, err = invoke(capsys, "wkb", "--alpha", "3",
                          "--fields", "0:1:5")
    assert code == 2
    assert "positive" in err


def test_unanchorable_calibration_is_numerical_error(capsys):
    # rates on this grid sit far below the calibration floor
    code, _, err = invoke(capsys, "wkb", "--alpha", "3",
                          "--fields", "0.001:0.002:3")
    assert code == 3
    assert "error:" in err


def test_fit_without_cut_is_numerical_error(capsys):
    # at l = 4.5 the alpha = 3 fit has h3 < 0: Gamma would be 0 everywhere
    code, out, err = invoke(capsys, "sweep", "--alpha", "3",
                            "--fields", "0:1:5", "--l", "4.5")
    assert code == 3
    assert out == ""
    assert "alpha=3" in err and "l=4.5" in err and "h3 = -551.075" in err


def test_series_failure_is_numerical_error_with_context(capsys, monkeypatch):
    # every series runs out of terms at once; the first nonzero field,
    # F = 0.1, sits at x = 20.6 on the cut, in the 1/w region
    monkeypatch.setattr(specfun, "MAX_TERMS", 0)
    code, out, err = invoke(capsys, "sweep", "--alpha", "3",
                            "--fields", "0:1:11")
    assert code == 3
    assert out == ""
    assert err == ("error: hypergeometric series exhausted 0 terms in the"
                   " 1/w connection (alpha=3.0, field=0.1)\n")


@pytest.mark.parametrize("argv,module,message", [
    (("dispersion", "--alpha", "3"), validate,
     "trapezoid sums not settled after 0 halvings (alpha=3.0)"),
    (("wkb", "--alpha", "3", "--fields", "0.05:0.3:6"), wkb,
     "barrier integral did not converge to 1e-10 at p=1.0, field=0.05"),
], ids=("dispersion", "wkb"))
def test_integration_failure_is_numerical_error(capsys, monkeypatch,
                                                empty_tables, argv, module,
                                                message):
    # each integrator stops after its first level, before two can agree
    monkeypatch.setattr(module, "_MAX_HALVINGS", 0)
    code, out, err = invoke(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


# valid input past the float range: one error line that names the input and
# exit code 3, never a traceback or a NaN row
FLOAT_RANGE_LIMITS = {
    ("sweep", "--alpha", "3", "--l", "99", "--fields", "0:1:3"):
        "Gamma(l+h1)*Gamma(l+h2)/Gamma(l+h1+h2) overflows a float"
        " (alpha=3.0, l=99.0)",
    ("wkb", "--alpha", "3", "--l", "99", "--fields", "0.1:0.3:3"):
        "(alpha=3.0, l=99.0)",
    ("dispersion", "--alpha", "3", "--l", "99"): "(alpha=3.0, l=99.0)",
    ("fit", "--alpha", "3", "--l", "200"): "z = (200+0j)",
    # Gamma(l) is NaN from l = 142.58, before complex_gamma raises
    ("fit", "--alpha", "3", "--l", "142.6"):
        "Gamma(l) of the fit: gamma overflows a float at z = (142.6+0j)"
        " (alpha=3, l=142.6)",
    ("sweep", "--alpha", "3", "--l", "150", "--fields", "0:1:3"):
        "Gamma(l) of the fit: gamma overflows a float at z = (150+0j)"
        " (alpha=3, l=150.0)",
    ("fit", "--alpha", "1e11"): "alpha=100000000000",
    ("dispersion", "--alpha", "1e11"): "alpha=100000000000",
    ("sweep", "--alpha", "1e11", "--fields", "0:1:3"): "alpha=100000000000",
    ("coeffs", "--alpha", "1e11"):
        "n=8 overflows a float (alpha=100000000000)",
    # an alpha longer than 20 characters prints to 6 significant digits
    ("coeffs", "--alpha", "1e400", "--order", "2"):
        "n=2 overflows a float (alpha=1e+400)",
    ("coeffs", "--alpha", "1e2200", "--order", "1"):
        "n=0 has too many digits to print exactly (alpha=1e+2200)",
    ("fit", "--alpha", "1e400"): "overflow a float (alpha=1e+400)",
    # 6 digits of 1.000000000001 would read 1, an invalid dimension
    ("fit", "--alpha", "1.000000000001", "--l", "1e3"):
        "(alpha=1+1e-12, l=1000.0)",
    ("wkb", "--alpha", "1e400", "--fields", "0.1:0.3:3"):
        "overflow a float (alpha=1e+400)",
    ("sweep", "--alpha", "3", "--fields", "0:1e200:3"):
        "(alpha=3.0, field=5e+199)",
}


@pytest.mark.parametrize("argv", sorted(FLOAT_RANGE_LIMITS), ids="_".join)
def test_float_range_limit_is_numerical_error(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 3
    assert "nan" not in out
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 120
    assert FLOAT_RANGE_LIMITS[argv] in err


def test_error_messages_shorten_long_alpha():
    """alpha prints as given up to 20 characters, else to 6 digits, or as
    its excess over 1 where 6 digits would read 1, the invalid dimension."""
    cases = [
        (Fraction(10 ** 11), "100000000000"),
        (Fraction(5, 2), "5/2"),
        (3.0, "3.0"),
        (Fraction(123456789012345678901234), "1.23457e+23"),
        (Fraction(10 ** 30) + Fraction(1, 3), "1e+30"),
        (Fraction(10 ** 400), "1e+400"),
        (Fraction(10 ** 5000), "1e+5000"),  # past the int-to-str digit limit
        (Fraction("1.000000000001"), "1+1e-12"),
        (1 + Fraction(1, 3 * 10 ** 40), "1+3.33333e-41"),
    ]
    assert [format_alpha(alpha) for alpha, _ in cases] == [t for _, t in cases]


# ---------------------------------------------------------------------------
# coeffs


def test_coeffs_csv_exact_column(capsys):
    code, out, _ = invoke(capsys, "coeffs", "--alpha", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,energy_coefficient,exact_value"
    assert lines[1] == "0,-0.5,-1/2"
    assert lines[2] == "2,-2.25,-9/4"
    assert lines[3].startswith("4,-55.546875,-3555/64")
    assert len(lines) == 6


def test_coeffs_fraction_alpha(capsys):
    code, out, _ = invoke(capsys, "coeffs", "--alpha", "5/2",
                          "--order", "2")
    assert code == 0
    series = energy_series(Fraction(5, 2), 2)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for k, row in enumerate(rows):
        assert row[2] == str(series.e_coeffs[k])
        assert float(row[1]) == float(series.e_coeffs[k])


def test_coeffs_symbolic_table(capsys):
    code, out, _ = invoke(capsys, "coeffs", "--alpha", "3", "--symbolic",
                          "--order", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,factor_polynomial"
    table = symbolic_energy_series(2)
    for k, line in enumerate(lines[1:], start=1):
        n, poly = line.split(",", 1)
        assert int(n) == 2 * k
        assert poly == table.factor_polynomial(k).to_string("alpha")
        assert "alpha" in poly


# ---------------------------------------------------------------------------
# fit / sweep / wkb / dispersion output shape


def test_fit_csv_matches_library(capsys):
    code, out, _ = invoke(capsys, "fit", "--alpha", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "parameter,real,imag"
    cells = {row[0]: (float(row[1]), float(row[2]))
             for row in (line.split(",") for line in lines[1:])}
    model = standard_model(3.0)
    assert cells["h1"] == (model.h1.real, model.h1.imag)
    assert cells["h1"][1] < 0.0
    assert cells["h3"][0] == model.h3.real
    assert cells["roundtrip_residual"][0] < 1e-10


def test_sweep_csv_shape(capsys):
    code, out, _ = invoke(capsys, "sweep", "--alpha", "3",
                          "--fields", "0:1:11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "field,delta,gamma"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == -0.5
    assert float(first[2]) == 0.0
    last = lines[-1].split(",")
    assert float(last[0]) == 1.0
    assert float(last[2]) > 0.0


def test_sweep_json_structure(capsys):
    code, out, _ = invoke(capsys, "sweep", "--alpha", "5/2",
                          "--fields", "0:2:5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"meta", "data"}
    assert doc["meta"]["command"] == "sweep"
    assert doc["meta"]["alpha"] == 2.5
    assert doc["meta"]["fields"] == {"start": 0.0, "stop": 2.0, "count": 5}
    assert len(doc["data"]) == 5
    assert set(doc["data"][0]) == {"field", "delta", "gamma"}
    assert all(row["gamma"] >= 0.0 for row in doc["data"])


def test_wkb_blank_cells_over_barrier(capsys):
    code, out, _ = invoke(capsys, "wkb", "--alpha", "3",
                          "--fields", "0.05:0.3:6", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["calibration_field"] == 0.05
    rows = doc["data"]
    assert len(rows) == 6
    below = [r for r in rows if r["y1"] is not None]
    above = [r for r in rows if r["y1"] is None]
    assert below and above
    for r in below:
        assert 0.0 < r["y1"] < r["y2"]
        assert 0.0 <= r["t_numeric"] <= 1.0
    for r in above:
        assert r["y2"] is None and r["t_numeric"] is None
        # closed form and calibrated curve are defined at any field
        assert r["t_closed"] > 0.0
        assert r["gamma_landau_calibrated"] > 0.0


def test_wkb_fields_to_the_float_range_end(capsys):
    """The closed form's log stays finite up to the largest field."""
    code, out, _ = invoke(capsys, "wkb", "--alpha", "3",
                          "--fields", "0.1:1e308:3", "--format", "json")
    assert code == 0
    rows = json.loads(out)["data"]
    assert [r["field"] for r in rows] == [0.1, 5e307, 1e308]
    assert all(r["t_closed"] > 0.0 for r in rows)


def test_wkb_fields_below_the_barrier_float_range(capsys):
    """A field too small for the barrier's cubic ends in one error line
    naming p and the field, exit code 3."""
    code, out, err = invoke(capsys, "wkb", "--alpha", "3",
                            "--fields", "1e-300:0.4:3")
    assert (code, out) == (3, "")
    assert err == ("error: barrier turning points at p=1.0, field=1e-300:"
                   " the cubic overflows a float near the outer one,"
                   " 1/(field p^2)\n")


def test_wkb_csv_blank_cells(capsys):
    code, out, _ = invoke(capsys, "wkb", "--alpha", "3",
                          "--fields", "0.05:0.3:6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("field,y1,y2,t_numeric,t_closed,"
                       "gamma_landau_calibrated")
    blanks = [line for line in lines[1:] if ",,," in line]
    assert blanks
    for line in blanks:
        cells = line.split(",")
        assert len(cells) == 6
        assert cells[1] == cells[2] == cells[3] == ""
        assert float(cells[4]) > 0.0


def test_wkb_reads_no_rate_past_its_calibration_point(capsys):
    """wkb evaluates Gamma only up to its calibration point, the first grid
    field with Gamma above the floor.  At F = 5e153 the continuation's
    offset h3 (F/4)^2 overflows a float, which once made this grid exit 3;
    that rate is never formed, and the over-barrier rows are blank."""
    code, out, err = invoke(capsys, "wkb", "--alpha", "3",
                            "--fields", "0.1:1e154:3", "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["meta"]["calibration_field"] == 0.1
    first, *above = doc["data"]
    assert [r["field"] for r in above] == [5e153, 1e154]
    assert 0.0 < first["y1"] < first["y2"]
    for r in above:
        assert r["y1"] is r["y2"] is r["t_numeric"] is None
        assert 0.0 < r["gamma_landau_calibrated"] < r["t_closed"]
    # the same field through the full complex energy still overflows
    code, _, err = invoke(capsys, "sweep", "--alpha", "3",
                          "--fields", "0.1:1e154:3")
    assert code == 3 and "overflows a float" in err


@pytest.mark.parametrize("alpha,fields", [
    ("3", "0.004:0.3:75"), ("5/2", "0.05:1.2:12"), ("3/2", "1:30:7"),
])
def test_wkb_calibration_point_is_the_sweeps(capsys, alpha, fields):
    """The calibration point is the lowest field of the whole sweep with
    Gamma above the floor (on the first grid the lowest fields fall below
    it)."""
    code, out, _ = invoke(capsys, "wkb", "--alpha", alpha, "--fields", fields,
                          "--format", "json")
    assert code == 0
    start, stop, count = fields.split(":")
    grid = _linear_grid(float(start), float(stop), int(count))
    points = sweep(standard_model(Fraction(alpha)), grid)
    picked = min(pt.field for pt in points if pt.gamma > CALIBRATION_FLOOR)
    assert json.loads(out)["meta"]["calibration_field"] == picked
    assert (alpha != "3") or points[0].gamma <= CALIBRATION_FLOOR < picked


def test_wkb_evaluates_rates_up_to_its_calibration_point(capsys,
                                                         monkeypatch):
    """wkb takes one rate per grid field, in order, and stops at the
    calibration field: a grid whose first fields fall below the floor
    evaluates exactly index + 1 rates."""
    calls = []
    rate = starkdim.resum.lower_side_rate

    def counted(model, field):
        calls.append(field)
        return rate(model, field)

    monkeypatch.setattr(starkdim.resum, "lower_side_rate", counted)
    code, out, _ = invoke(capsys, "wkb", "--alpha", "3",
                          "--fields", "0.004:0.3:75", "--format", "json")
    assert code == 0
    grid = _linear_grid(0.004, 0.3, 75)
    index = grid.index(json.loads(out)["meta"]["calibration_field"])
    assert index > 0
    assert calls == grid[:index + 1]


def test_dispersion_csv(capsys):
    code, out, _ = invoke(capsys, "dispersion", "--alpha", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("n,series_value,integral_value,relative_error,"
                       "upper_cutoff,node_count")
    assert len(lines) == 4
    for line, n in zip(lines[1:], (2, 3, 4)):
        cells = line.split(",")
        assert int(cells[0]) == n
        assert float(cells[3]) < 0.10


# ---------------------------------------------------------------------------
# grids


def test_linear_grid_bit_equal_to_numpy():
    rng = random.Random(4)
    cases = [(0.0, 1.0, 101), (0.05, 0.3, 21), (0.0, 2.0, 101)]
    for _ in range(2000):
        start = rng.choice((0.0, rng.uniform(0.0, 10.0)))
        cases.append((start, start + 10.0 ** rng.uniform(-3.0, 3.0),
                      rng.randint(2, 300)))
    for start, stop, count in cases:
        assert _linear_grid(start, stop, count) == \
            np.linspace(start, stop, count).tolist()


def test_log_grid_within_one_ulp_of_numpy():
    """Ends are exact; inner points are 10**u on the linear grid in log10,
    whose rounding may differ from numpy's power by one ulp.  Where the
    platform's log10 and numpy's round an end differently (one random grid
    in ten with glibc), the inner points inherit that shift."""
    rng = random.Random(5)
    cases = [(lo, hi, 101) for _, lo, hi in LANDAU_COMPARISON_RANGES]
    for _ in range(2000):
        lo = 10.0 ** rng.uniform(-4.0, 1.0)
        cases.append((lo, lo * 10.0 ** rng.uniform(0.05, 4.0),
                      rng.randint(2, 300)))
    for lo, hi, count in cases:
        grid = _log_grid(lo, hi, count)
        ref = np.geomspace(lo, hi, count).tolist()
        assert (grid[0], grid[-1], len(grid)) == (lo, hi, count)
        if all(math.log10(x) == np.log10(x) for x in (lo, hi)):
            assert all(abs(a - b) <= math.ulp(b) for a, b in zip(grid, ref))
        else:
            assert all(abs(a - b) <= 1e-14 * b for a, b in zip(grid, ref))


# ---------------------------------------------------------------------------
# files and determinism


def test_repeated_json_output_is_identical(capsys):
    _, first, _ = invoke(capsys, "sweep", "--alpha", "3",
                         "--fields", "0:1:21", "--format", "json")
    _, second, _ = invoke(capsys, "sweep", "--alpha", "3",
                          "--fields", "0:1:21", "--format", "json")
    assert first == second


# ---------------------------------------------------------------------------
# renderers: whole-table output against the per-row formulas


@pytest.mark.parametrize("argv", [
    ("coeffs", "--alpha", "5/2", "--order", "6", "--format", "json"),
    ("coeffs", "--alpha", "3", "--symbolic", "--format", "json"),
    ("fit", "--alpha", "3", "--format", "json"),
    ("sweep", "--alpha", "3", "--fields", "0:1:11", "--format", "json"),
    ("wkb", "--alpha", "3", "--fields", "0.05:0.3:11", "--format", "json"),
    ("dispersion", "--alpha", "2", "--format", "json"),
    ("reproduce", "--figure", "1"),
    ("reproduce", "--figure", "2"),
    ("reproduce", "--figure", "3"),
], ids="_".join)
def test_json_output_is_canonical(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def _random_doubles(count, seed=7):
    rng = random.Random(seed)
    return [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            for _ in range(count)]


# columns out of sorted order, with a quote, a %-sign and non-ASCII text
RENDER_TABLES = {
    "zero_rows": (("field", "delta", "gamma"), []),
    "special_floats": (("z", "a%s", 'q"'), [
        (math.nan, math.inf, -math.inf),
        (-0.0, 5e-324, 0.1),
        (1.7976931348623157e308, -2.5e-310, 1e22),
    ]),
    "random_doubles": (("x", "y", "w"),
                       list(zip(*[iter(_random_doubles(300))] * 3))),
    "none_int_bool": (("n", "value", "flag"), [
        (None, 3, True),
        (2.5, -7, False),
        (10 ** 30, None, 0.0),
    ]),
    "strings": (("text", "ü", "x"), [
        ('say "hi"', "two\nlines", 1.0),
        ("100% %s %d %%", "αβ — ünïcode\t\u2028", None),
    ]),
    "one_column": (("only",), [(1.5,), (-0.0,)]),
}


def _reference_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@pytest.mark.parametrize("name", sorted(RENDER_TABLES))
def test_render_csv_matches_per_cell_format(name):
    columns, rows = RENDER_TABLES[name]
    lines = [",".join(columns)]
    lines.extend(",".join(_reference_cell(v) for v in row) for row in rows)
    assert _render_csv(columns, rows) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(RENDER_TABLES))
def test_render_json_matches_one_dumps(name):
    columns, rows = RENDER_TABLES[name]
    extra = {"cases": [{"alpha": 3.0, "note": 'a "b"\n%s ü'}],
             "empty": [], "x": math.nan}
    ns = SimpleNamespace(subcommand="reproduce")
    document = {
        "meta": {"command": "reproduce", "version": __version__, **extra},
        "data": [dict(zip(columns, row)) for row in rows],
    }
    reference = json.dumps(document, indent=2, sort_keys=True) + "\n"
    assert _render_json(ns, columns, rows, extra) == reference


# sha256 of the output bytes: a refactor of the numerics must keep them.
# All seven were re-pinned together when the reflected series behind Gamma
# (2 < x <= 11) moved to anchored Taylor expansions, after a number-by-number
# comparison with the earlier bytes and a 60-digit oracle: Delta and every
# field unchanged, Gamma within 2e-15 relative (largest change per column in
# CHANGES.md).  The alpha = 5 sweep has a real pair (h1, h2): it keeps both
# 1/w series, and its grid reaches the log connection, the reflected series
# and x > 11.  The wkb grid was re-pinned alone when the barrier integral
# moved to the tanh-sinh rule and y2's search to the root-sum bracket: y1
# unchanged, y2 within 5.2e-16 and t_numeric within 6.1e-15 relative.  It
# was re-pinned alone again when the integrand's negative root y3 moved from
# the root sum to the root product: t_numeric within 8.7e-16 relative, every
# other column unchanged.  Figures 2 and 3 were re-pinned when the float
# series engine moved to the rescaled recursion: only alpha = 2.5 moved, its
# order-4 series closer to the exact one (4.1e-16 to 6.4e-17 relative), with
# the largest change per column in CHANGES.md.  The dispersion report was
# re-pinned alone when its moments moved to the stretched grid in ln F:
# integral_value within 2.5e-11 relative, n = 2 toward a wide reference,
# node_count 97 to 37 and upper_cutoff 6.99e4 to 8.89e5.  The last three,
# recorded before the JSON renderer moved to one C-encoder call per table,
# hold null cells (wkb), string cells (fit) and int and exact-string cells
# (coeffs).  That coeffs table was re-pinned alone when coeffs lost the
# --l option it never read: its meta no longer records "l", the rest is
# unchanged.  The two low-field sweeps at l = 90 (a conjugate pair) and
# l = 12 (a real pair) were pinned before the logarithmic connection's head
# kept its rows.  Figures 1 and 2 and the four sweeps were re-pinned when Re F
# on the cut up to v = max(1, l/6) moved to the 1 - 1/w connection: 40 Delta
# and 3 Gamma cells moved, every field unchanged; per column the largest
# change and each moved cell against the 60-digit reference are in
# CHANGES.md (all but one moved toward it; that one by one ulp).  The l = 90
# sweep was re-pinned alone when the reflected series' reach moved from
# x = 11 to x = 1 + max(10, 2H), H the Re F hand-over (x = 31 at l = 90):
# 9 Gamma cells moved, the largest by 2.0e-12 relative (F = 0.039), each
# toward the 60-digit reference (worst 2.0e-12 before, 9.9e-15 after), and
# Delta and every field kept their bits.
PINNED_DIGESTS = {
    ("reproduce", "--figure", "1"):
        "84054915edcb850698db5f98f61484f1cee52f756675821cb541fefda53285a8",
    ("reproduce", "--figure", "2"):
        "cd59b8d7627c849cb0757ee962951d34ad187addedf20cff45800c6e333583de",
    ("reproduce", "--figure", "3"):
        "496ba5939d31d638ed8a37b2d004c255c2524160df29d3a2d05a385498db7e73",
    ("sweep", "--alpha", "5/2", "--fields", "0:2:101"):
        "75f311f5668a3760aa4d523cd77a8695428bf97793dbc270218616c3c8eb9a39",
    ("wkb", "--alpha", "3", "--fields", "0.05:0.3:21"):
        "f8e10bb24067a32c499fbe2f4b120347fc71cd86ebbf34295c7b5ed8eb1c9722",
    ("dispersion", "--alpha", "3/2", "--format", "json"):
        "8eb4b17a9b241d7ba6583543010a1924017dd145a602cd01caa131d3e631beef",
    ("sweep", "--alpha", "5", "--fields", "0:0.05:101"):
        "75229ad9cf56abe0316e1f2727567f555ec637a0bcd143688b1ae8a33d598383",
    ("coeffs", "--alpha", "3", "--order", "20", "--symbolic"):
        "ebca81d780e16cb7196de3f11f5a0ccb65f30b99b7d094c340b9886ea543a494",
    ("wkb", "--alpha", "3", "--fields", "0.05:0.3:21", "--format", "json"):
        "7276020ae1e14192a9bf13c782ae4faa02360551c660e9893fc62e2babe61cdf",
    ("fit", "--alpha", "3", "--format", "json"):
        "b29f4241d8e44d052ef16d635053edcf51463ec166e6b28be42dd7d3d22ca03f",
    ("coeffs", "--alpha", "5/2", "--order", "6", "--format", "json"):
        "e556f5594d10fc3590254001bde022906d40f94d9d470500ceb14d4170b5ce15",
    ("sweep", "--alpha", "3", "--l", "90", "--fields", "0:0.3:101"):
        "05271b8883bd35cfbf1f874971ca6dc3bcee6a78e9034824b7017df0a9880eb3",
    ("sweep", "--alpha", "7/2", "--l", "12", "--fields", "0:0.2:101"):
        "fe836ef1443c64a522addcb522e61af3e06e8cd3ccbcd791da8510695b203f5d",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DIGESTS), ids="_".join)
def test_output_bytes_pinned(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]


# sha256 of the top-level and of each subcommand's --help at COLUMNS=80,
# recorded before the parser took DEFAULT_L and DEFAULT_ORDER_CAP from the
# package root instead of the numeric layers.  argparse words and wraps help
# differently across Python versions (3.10 heads the options "optional
# arguments:"), so the bytes are pinned for the version they were taken on.
# coeffs was re-pinned alone when it lost --l, which only the commands that
# fit a model take.
HELP_DIGESTS = {
    (): "f54c87fffc4cc8a6ca5d440f591dfadda7d6e4eeabeafd4e457dd04ddfed61ec",
    ("coeffs",):
        "af283cf2790e1b0a75647c2084379938ae9656b015b7c75a0ebfdb889a50e42e",
    ("fit",):
        "5ae7ac0b2460f52ac58af9fe52dcf523aa494e021508a0856b10094b25622622",
    ("sweep",):
        "854493be9d938b3dc7811d9d90d59f22e7c7c32acbd51651281f0bbcfbe09c56",
    ("wkb",):
        "46e2892b534bc0611e2f23e2ab3f105ea7e00ea3c46332bbac9484ee9142f333",
    ("dispersion",):
        "500b37a56eaaf016c302305bd47adb3984de60ff559feb7c33a9eb027724daf7",
    ("reproduce",):
        "38aba0d6c6a05459756133bcfdb9f6cc90741be1ddab518b0339683206995de7",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help bytes pinned with Python 3.11's argparse")
@pytest.mark.parametrize("command", sorted(HELP_DIGESTS),
                         ids=lambda command: "_".join(command) or "top")
def test_help_bytes_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = invoke(capsys, *command, "--help")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command]


def test_one_parser_serves_every_run(capsys):
    """The parser is built once per process; a usage error, --help and
    --version leave it fit for the next run."""
    assert build_parser() is build_parser()
    assert invoke(capsys, "sweep", "--alpha", "3")[0] == 2
    argv = ("sweep", "--alpha", "5/2", "--fields", "0:2:101")
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]
    for flag in ("--help", "--version", "--help", "--version"):
        assert invoke(capsys, flag)[0] == 0


def test_output_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = invoke(capsys, "coeffs", "--alpha", "3",
                          "--output", str(target))
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("n,energy_coefficient,exact_value\n")
    assert not [name for name in os.listdir(tmp_path)
                if name.startswith(".starkdim-")]


def test_failed_run_leaves_no_file(tmp_path, capsys):
    target = tmp_path / "never.csv"
    code, _, _ = invoke(capsys, "wkb", "--alpha", "3",
                        "--fields", "0.001:0.002:3",
                        "--output", str(target))
    assert code == 3
    assert not target.exists()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("mask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_output_file_mode_follows_the_umask(tmp_path, capsys, mask, mode):
    """--output creates its file with mode 0o666 less the umask, as a shell
    redirection does."""
    target = tmp_path / "fit.csv"
    saved = os.umask(mask)
    try:
        code, _, _ = invoke(capsys, "fit", "--alpha", "3",
                            "--output", str(target))
    finally:
        os.umask(saved)
    assert code == 0
    assert target.stat().st_mode & 0o777 == mode


def test_output_temp_name_taken_is_drawn_again(tmp_path, capsys, monkeypatch):
    """A temporary name that another file holds is left alone, and the
    next name drawn serves."""
    draws = iter((bytes(6), bytes([1] * 6)))
    monkeypatch.setattr(os, "urandom", lambda size: next(draws))
    taken = tmp_path / f".starkdim-{bytes(6).hex()}"
    taken.write_text("other")
    code, _, _ = invoke(capsys, "fit", "--alpha", "3",
                        "--output", str(tmp_path / "fit.csv"))
    assert code == 0
    assert taken.read_text() == "other"
    assert sorted(os.listdir(tmp_path)) == [taken.name, "fit.csv"]


@pytest.mark.parametrize("name,errno_code", [
    ("missing/x.csv", errno.ENOENT), ("table", errno.EISDIR)])
def test_unwritable_output_is_input_error(tmp_path, capsys, name, errno_code):
    """An --output in a missing directory, or naming a directory, ends in
    one error line and exit 2, and leaves no temporary file behind."""
    (tmp_path / "table").mkdir()
    target = tmp_path / name
    code, out, err = invoke(capsys, "fit", "--alpha", "3",
                            "--output", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: {os.strerror(errno_code)}\n"
    assert os.listdir(tmp_path) == ["table"]
    assert os.listdir(tmp_path / "table") == []


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_requires_figure(capsys):
    code, _, _ = invoke(capsys, "reproduce")
    assert code == 2


def test_reproduce_figure_one(capsys):
    code, out, _ = invoke(capsys, "reproduce", "--figure", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["meta"]["figure"] == 1
    assert doc["meta"]["alpha"] == 3.0
    assert len(doc["data"]) == 101
    assert doc["data"][0]["field"] == 0.0
    assert doc["data"][-1]["gamma"] > 0.0


# each command's JSON meta: {command, version}, every parsed option but
# subcommand, handler, fmt and output (given here with its JSON value), and
# the named extras of the command
META = {
    ("coeffs", "--alpha", "5/2", "--order", "3"): (
        {"alpha": 2.5, "order": 3, "symbolic": False}, ()),
    ("coeffs", "--alpha", "3", "--order", "3", "--symbolic"): (
        {"alpha": 3.0, "order": 3, "symbolic": True}, ()),
    ("fit", "--alpha", "7/2", "--l", "12.5"): (
        {"alpha": 3.5, "l": 12.5}, ()),
    ("sweep", "--alpha", "3", "--fields", "0:1:5"): (
        {"alpha": 3.0, "l": 30.0,
         "fields": {"start": 0.0, "stop": 1.0, "count": 5}}, ()),
    ("wkb", "--alpha", "3", "--fields", "0.05:0.3:5"): (
        {"alpha": 3.0, "l": 30.0,
         "fields": {"start": 0.05, "stop": 0.3, "count": 5}},
        ("calibration_field",)),
    ("dispersion", "--alpha", "3"): ({"alpha": 3.0, "l": 30.0}, ()),
    ("reproduce", "--figure", "1"): ({"figure": 1}, ("alpha",)),
    ("reproduce", "--figure", "2"): ({"figure": 2},
                                     ("cases", "slope_exponent")),
    ("reproduce", "--figure", "3"): ({"figure": 3}, ("cases",)),
}


@pytest.mark.parametrize("argv", sorted(META), ids="_".join)
def test_json_meta_is_the_parsed_options(capsys, argv):
    options, extras = META[argv]
    # reproduce writes JSON and takes no --format
    if argv[0] != "reproduce":
        argv = (*argv, "--format", "json")
    parsed = set(vars(build_parser().parse_args(argv)))
    parsed -= {"subcommand", "handler", "fmt", "output"}
    assert parsed == set(options)
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    meta = json.loads(out)["meta"]
    assert set(meta) == {"command", "version", *options, *extras}
    assert {key: meta[key] for key in options} == options
    assert (meta["command"], meta["version"]) == (argv[0], __version__)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "starkdim", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "starkdim" in proc.stdout


def _readme_commands():
    """argv lists of the ``starkdim`` lines in README's "Command line" block."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("starkdim ")]


def test_readme_commands_run(tmp_path, capsys):
    """Every documented command line runs, so the docs cannot go stale."""
    commands = _readme_commands()
    assert commands
    for k, argv in enumerate(commands):
        if "--output" not in argv:
            argv += ["--output", f"command{k}.out"]
        i = argv.index("--output") + 1
        target = argv[i] = str(tmp_path / argv[i])
        code, _, err = invoke(capsys, *argv)
        assert code == 0, (argv, err)
        assert os.path.getsize(target) > 0


def test_readme_library_block_runs(tmp_path):
    """README's ``python`` example under "Library" runs against ``src``,
    so a deleted or renamed public name cannot leave it stale."""
    root = Path(__file__).resolve().parents[1]
    text = (root / "README.md").read_text().split("## Library", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(root / "src")},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_and_series_import_no_scipy_or_numpy():
    commands = [
        ["coeffs", "--alpha", "3"],
        ["coeffs", "--alpha", "3", "--symbolic"],
        ["fit", "--alpha", "3"],
        ["sweep", "--alpha", "3", "--fields", "0:1:5"],
        ["wkb", "--alpha", "3", "--fields", "0.05:0.3:6"],
        ["dispersion", "--alpha", "3"],
        ["reproduce", "--figure", "1"],
        ["reproduce", "--figure", "2"],
        ["reproduce", "--figure", "3"],
    ]
    code = (
        "import contextlib, io, sys\n"
        "import starkdim.cli\n"
        "starkdim.energy_series(3, 8)\n"
        "def loaded():\n"
        "    print(sorted(m for m in sys.modules\n"
        "                 if m.split('.')[0] in ('numpy', 'scipy')))\n"
        "loaded()\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert starkdim.cli.run(argv) == 0, argv\n"
        "    loaded()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"] * (len(commands) + 1)


LAYERS = ("coeffs", "resum", "specfun", "validate", "wkb")


def test_import_path_stays_light(tmp_path):
    """``import starkdim.cli`` plus the parser, in an interpreter without
    site-packages, loads none of dataclasses, inspect, typing, json,
    tempfile, fractions, decimal or __future__, and none of the numeric
    layers: each costs time in every fresh CLI process.  JSON and
    ``--output`` still work once asked for."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    target = tmp_path / "figure1.json"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import starkdim.cli\n"
        "starkdim.cli.build_parser()\n"
        "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', 'json',\n"
        "                         'tempfile', 'fractions', 'decimal',\n"
        "                         '__future__',\n"
        "                         *(f'starkdim.{layer}' for layer\n"
        f"                                       in {LAYERS!r}))\n"
        "             if m in sys.modules))\n"
        "sys.exit(starkdim.cli.run(['reproduce', '--figure', '1',\n"
        f"                            '--output', {str(target)!r}]))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == PINNED_DIGESTS[("reproduce", "--figure", "1")]


RESONANCE_LAYERS = ("coeffs", "resum", "specfun")


@pytest.mark.parametrize("argv,layers", [
    (["--help"], ()),
    (["--version"], ()),
    (["sweep", "--alpha", "3"], ()),
    (["coeffs", "--alpha", "3", "--symbolic"], ("coeffs",)),
    (["fit", "--alpha", "3"], RESONANCE_LAYERS),
    (["sweep", "--alpha", "3", "--fields", "0:1:5"], RESONANCE_LAYERS),
    (["reproduce", "--figure", "1"], RESONANCE_LAYERS),
    (["reproduce", "--figure", "2"], RESONANCE_LAYERS),
    (["wkb", "--alpha", "3", "--fields", "0.05:0.3:6"],
     RESONANCE_LAYERS + ("wkb",)),
    (["reproduce", "--figure", "3"], RESONANCE_LAYERS + ("wkb",)),
    (["dispersion", "--alpha", "3"], RESONANCE_LAYERS + ("validate",)),
], ids=lambda value: "_".join(value) if isinstance(value, list) else None)
def test_each_command_loads_only_its_layers(argv, layers):
    """A fresh process running one command imports the numeric layers that
    command calls and no other; help, version and usage errors load none."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import starkdim.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        f"    starkdim.cli.run({argv!r})\n"
        f"print([m for m in {LAYERS!r} if f'starkdim.{{m}}' in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{sorted(layers)}\n"


# the public names of the package root, by the module that defines them
EXPORTS = {
    "coeffs": "DEFAULT_ORDER_CAP DimensionParams EnergySeries "
              "RationalPolynomial SymbolicEnergySeries channel_series "
              "energy_series reference_factor_polynomial "
              "symbolic_energy_series unperturbed_params",
    "resum": "DEFAULT_L STANDARD_SWEEP_RANGES HypModel LinearTailFit "
             "ResonancePoint critical_field fit_model fit_round_trip_residual "
             "linear_tail_fit model_coefficients resonance slope_exponent "
             "standard_model sweep",
    "specfun": "complex_gamma gauss_2f1",
    "validate": "DispersionEntry DispersionReport dispersion_coefficient "
                "dispersion_report",
    "wkb": "CALIBRATION_FLOOR LANDAU_COMPARISON_RANGES BarrierModel "
           "barrier_model barrier_potential keldysh_exponent "
           "landau_calibrated_rate landau_closed_form "
           "landau_log_transmittance "
           "turning_points wkb_exponent wkb_transmittance "
           "zero_field_inner_turning_point",
}


def test_package_root_resolves_names_on_first_use():
    """A bare ``import starkdim`` loads no layer.  Each public name then
    resolves, on first access, to the object its module defines, and so
    does each submodule; ``from starkdim import *`` binds ``__all__``, and
    an unknown name raises AttributeError, on which ``from starkdim import
    _record`` falls back to importing the submodule."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import starkdim\n"
        "print(sorted(m for m in sys.modules if m.startswith('starkdim')))\n"
        "from starkdim import _record, validate\n"
        "assert validate is sys.modules['starkdim.validate']\n"
        f"exports = {EXPORTS!r}\n"
        "for module, names in exports.items():\n"
        "    for name in names.split():\n"
        "        value = getattr(starkdim, name)\n"
        "        layer = importlib.import_module(f'starkdim.{module}')\n"
        "        assert value is getattr(layer, name), name\n"
        "for name in ('cli', 'errors', *exports):\n"
        "    assert getattr(starkdim, name) is sys.modules[f'starkdim.{name}']\n"
        "assert sorted(starkdim.__all__) == sorted(\n"
        "    name for names in exports.values() for name in names.split())\n"
        "namespace = {}\n"
        "exec('from starkdim import *', namespace)\n"
        "assert set(namespace) - {'__builtins__'} == set(starkdim.__all__)\n"
        "try:\n"
        "    starkdim.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['starkdim']\nok\n"
