"""Command-line interface: parsing, formats, exit codes, atomic output."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from starkdim import (LANDAU_COMPARISON_RANGES, energy_series, specfun,
                      standard_model, symbolic_energy_series)
from starkdim.cli import _linear_grid, _log_grid, build_parser, run
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
}


@pytest.mark.parametrize("argv", sorted(BAD_VALUES), ids="_".join)
def test_bad_value_is_reported_by_argparse(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: starkdim {argv[0]} ")
    assert err.endswith(f"starkdim {argv[0]}: error: {BAD_VALUES[argv]}\n")


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
    """alpha prints as given up to 20 characters, else to 6 digits."""
    cases = [
        (Fraction(10 ** 11), "100000000000"),
        (Fraction(5, 2), "5/2"),
        (3.0, "3.0"),
        (Fraction(123456789012345678901234), "1.23457e+23"),
        (Fraction(10 ** 30) + Fraction(1, 3), "1e+30"),
        (Fraction(10 ** 400), "1e+400"),
        (Fraction(10 ** 5000), "1e+5000"),  # past the int-to-str digit limit
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


# sha256 of the output bytes: a refactor of the numerics must keep them.
# Figure 1 and the sweep date from before the 2F1 continuation constants moved
# into a per-model object.  The other four were re-pinned when grids, line
# fits, moment sums and Gauss-Legendre nodes moved to plain floats, after a
# number-by-number comparison (largest drift per column in CHANGES.md).
# The alpha = 5 sweep, recorded before the 1/w connection summed one series
# per conjugate pair, has a real pair (h1, h2): it keeps both series, and its
# grid reaches the log connection, the reflected series and x > 11.
PINNED_DIGESTS = {
    ("reproduce", "--figure", "1"):
        "da8afd7827c215ef4018bb380af626ca31a60953cd812c221e02ff65a756213a",
    ("reproduce", "--figure", "2"):
        "4bad070fc3ceb4903b63e528e3fc0867ae22e8708c8fc511869983c8dd0bc7fc",
    ("reproduce", "--figure", "3"):
        "75c00703b4dd7245c56549ffedf4db25632dbbef0cd62c3028499975abde910c",
    ("sweep", "--alpha", "5/2", "--fields", "0:2:101"):
        "7bd96d68cc2400b33ba0f416a305f1c11d8bf0956b44a8ddeaa535488d2ee7df",
    ("wkb", "--alpha", "3", "--fields", "0.05:0.3:21"):
        "ef70cf07ee85a003608a2f0e760aa53266baa05c53812a0ff73c90243f5843d4",
    ("dispersion", "--alpha", "3/2", "--format", "json"):
        "9e57be1e384a6e3c0cb25a20535bdf0bee77c4cff5823c058fe04c34bcdc4218",
    ("sweep", "--alpha", "5", "--fields", "0:0.05:101"):
        "6edcf681b2bf68431a23920d4fa4b57175142db4d536563208528c3655e853e2",
}


@pytest.mark.parametrize("argv", sorted(PINNED_DIGESTS), ids="_".join)
def test_output_bytes_pinned(capsys, argv):
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DIGESTS[argv]


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
