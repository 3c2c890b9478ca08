"""Command-line front end.

Subcommands cover the library surface: exact coefficient tables (numeric
and symbolic), model fits, field sweeps of the continued resonance energy,
semiclassical barrier output, the dispersion-relation consistency check,
and canned dataset reproduction for the three standard figures.

Output is CSV (default) or JSON, to stdout or to a file written atomically
(temp file plus rename, so failures never leave partial output).  Identical
invocations produce bit-identical bytes: grids and orderings are fixed, and
each table's rows hold flat scalars only.  A CSV cell is a float written
with ``%.17g``, the text of an int or string, or empty for None.  JSON bytes
equal ``json.dumps(doc, indent=2, sort_keys=True)`` of ``{"meta": ...,
"data": [one object per row]}``, with floats in shortest round-trip form.
The meta is the command, the version and every option the command parsed
but ``--format`` and ``--output``, then what the command adds.
"""

import argparse
import functools
import math
import os
import sys

from . import DEFAULT_L, DEFAULT_ORDER_CAP, __version__
from .errors import InputError, NoBarrier, NumericalError, OutOfRange

GRID_POINTS = 101


def _linear_grid(start: float, stop: float, count: int) -> list:
    """``count`` evenly spaced points start + k*step, the last exactly stop."""
    step = (stop - start) / (count - 1)
    return [start + k * step for k in range(count - 1)] + [stop]


def _log_grid(lo: float, hi: float, count: int) -> list:
    """``count`` points evenly spaced in log10, with both ends exact."""
    inner = _linear_grid(math.log10(lo), math.log10(hi), count)[1:-1]
    return [lo] + [10.0 ** u for u in inner] + [hi]


def _bounded_arg(parse, accept, requirement: str, kind="a real number"):
    """Argument type that parses ``kind`` text, then requires accept(value):
    argparse reports a bad value with its usage line (exit code 2)."""
    def convert(text: str):
        try:
            value = parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"not {kind}: {text!r}") from exc
        if not accept(value):
            raise argparse.ArgumentTypeError(f"{requirement}, got {text}")
        return value
    return convert


def _fraction(text: str):
    # imported here: fractions pulls in decimal, a few ms in every process
    from fractions import Fraction

    return Fraction(text)


# alpha stays exact (a Fraction) so that coefficient generation runs in
# rational arithmetic; it accepts decimals and fractions such as 5/2
_alpha_arg = _bounded_arg(_fraction, lambda alpha: alpha > 1,
                          "dimension must exceed 1 strictly")
_l_arg = _bounded_arg(float, lambda l: 4.0 < l < math.inf,
                      "branch power l must be finite and exceed 4")
_order_arg = _bounded_arg(int, lambda n: 1 <= n <= DEFAULT_ORDER_CAP,
                          f"order must lie in 1..{DEFAULT_ORDER_CAP}",
                          "an integer")


def _fields_arg(text: str) -> dict:
    """The grid START:STOP:COUNT as {start, stop, count}, the keywords of
    :func:`_linear_grid` and the shape of the ``fields`` meta entry."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected START:STOP:COUNT, got {text!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise argparse.ArgumentTypeError(
            f"fields must be finite, got {start}:{stop}")
    if not 0.0 <= start < stop:
        raise argparse.ArgumentTypeError(
            f"fields need 0 <= start < stop, got {start}:{stop}")
    if count < 2:
        raise argparse.ArgumentTypeError(
            f"grid needs at least 2 points, got {count}")
    return {"start": start, "stop": stop, "count": count}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports the arguments it does not know
    with its own usage line, where the top-level parser would print its
    own."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later :func:`run` in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="starkdim",
        description="Stark resonances of hydrogen-like atoms in dimension "
        "alpha > 1: exact series, hypergeometric continuation, and "
        "semiclassical cross-checks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="COMMAND",
                                parser_class=_SubcommandParser)

    def add_output(p):
        p.add_argument("--output", metavar="PATH",
                       help="write to PATH (atomic) instead of stdout")

    def add_common(p, fields=False, model=True):
        p.add_argument("--alpha", type=_alpha_arg, required=True,
                       metavar="A", help="dimension, alpha > 1 (e.g. 3, 5/2)")
        if model:  # only a fitted continuation has a branch power
            p.add_argument("--l", type=_l_arg, default=DEFAULT_L, metavar="L",
                           help="branch power of the continuation (default 30)")
        if fields:
            p.add_argument("--fields", type=_fields_arg, required=True,
                           metavar="S:E:K",
                           help="linear field grid: start:end:count")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv", help="output format (default csv)")
        add_output(p)

    p = sub.add_parser("coeffs", help="weak-field energy coefficients")
    p.add_argument("--order", type=_order_arg, default=4, metavar="N",
                   help="highest coefficient order (default 4)")
    p.add_argument("--symbolic", action="store_true",
                   help="emit the exact factor polynomials in the dimension "
                        "instead of numeric values")
    add_common(p, model=False)
    p.set_defaults(handler=_cmd_coeffs)

    p = sub.add_parser("fit", help="continuation-model parameters")
    add_common(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("sweep", help="resonance energy over a field grid")
    add_common(p, fields=True)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("wkb", help="barrier geometry and transmittance")
    add_common(p, fields=True)
    p.set_defaults(handler=_cmd_wkb)

    p = sub.add_parser("dispersion",
                       help="rate-integral consistency check of the series")
    add_common(p)
    p.set_defaults(handler=_cmd_dispersion)

    p = sub.add_parser("reproduce",
                       help="canned dataset for one of the standard figures")
    p.add_argument("--figure", type=int, choices=(1, 2, 3), required=True,
                   help="figure number")
    add_output(p)
    # fixed multi-case datasets; always JSON
    p.set_defaults(fmt="json", handler=_cmd_reproduce)

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (columns, rows, extra_meta) and imports
# the layers it calls, so that building the parser compiles none of them


def _cmd_coeffs(ns: argparse.Namespace):
    from .coeffs import energy_series, format_alpha, symbolic_energy_series

    if ns.symbolic:
        table = symbolic_energy_series(ns.order)
        columns = ("n", "factor_polynomial")
        rows = [
            (2 * k, table.factor_polynomial(k).to_string("alpha"))
            for k in range(1, ns.order + 1)
        ]
        return columns, rows, {}
    series = energy_series(ns.alpha, ns.order)
    columns = ("n", "energy_coefficient", "exact_value")
    rows = []
    for k, exact in enumerate(series.e_coeffs):
        try:
            rows.append((2 * k, float(exact), str(exact)))
        except OverflowError:
            problem = "overflows a float"
        except ValueError:  # past Python's int-to-str digit limit
            problem = "has too many digits to print exactly"
        else:
            continue
        raise NumericalError(f"energy coefficient n={2 * k} {problem}"
                             f" (alpha={format_alpha(ns.alpha)})")
    return columns, rows, {}


def _cmd_fit(ns: argparse.Namespace):
    from .coeffs import energy_series
    from .resum import fit_model, fit_round_trip_residual

    series = energy_series(ns.alpha, 4)
    model = fit_model(series, ns.l)
    residual = fit_round_trip_residual(model, series)
    columns = ("parameter", "real", "imag")
    rows = [
        ("h1", model.h1.real, model.h1.imag),
        ("h2", model.h2.real, model.h2.imag),
        ("h3", model.h3.real, model.h3.imag),
        ("h4", model.h4.real, model.h4.imag),
        ("roundtrip_residual", residual, 0.0),
    ]
    return columns, rows, {}


def _sweep_rows(model, fields) -> list:
    """(field, delta, gamma) rows of the resonance sweep over ``fields``."""
    from .resum import sweep

    return [(pt.field, pt.delta, pt.gamma) for pt in sweep(model, fields)]


def _cmd_sweep(ns: argparse.Namespace):
    from .resum import standard_model

    rows = _sweep_rows(standard_model(ns.alpha, ns.l),
                       _linear_grid(**ns.fields))
    return ("field", "delta", "gamma"), rows, {}


def _cmd_wkb(ns: argparse.Namespace):
    from .resum import lower_side_rate, standard_model
    from .wkb import barrier_model, landau_calibrated_rate, landau_closed_form

    if ns.fields["start"] <= 0.0:
        raise OutOfRange("barrier analysis needs strictly positive fields")
    model = standard_model(ns.alpha, ns.l)
    p = (float(ns.alpha) - 1.0) / 2.0
    fields = _linear_grid(**ns.fields)
    # the rates come one field at a time, so none is evaluated past the
    # calibration field
    calibration_field, calibrated = landau_calibrated_rate(
        p, fields, (abs(lower_side_rate(model, field)) for field in fields))
    columns = ("field", "y1", "y2", "t_numeric", "t_closed",
               "gamma_landau_calibrated")
    rows = []
    for field, (_, rate) in zip(fields, calibrated):
        try:
            bar = barrier_model(p, field)
            y1, y2, t_num = bar.y1, bar.y2, bar.transmittance
        except NoBarrier:
            # over-barrier field: geometry and tunneling factor undefined
            y1 = y2 = t_num = None
        rows.append((field, y1, y2, t_num, landau_closed_form(p, field), rate))
    return columns, rows, {"calibration_field": calibration_field}


def _cmd_dispersion(ns: argparse.Namespace):
    from .coeffs import energy_series
    from .resum import fit_model
    from .validate import dispersion_report

    series = energy_series(ns.alpha, 4)
    model = fit_model(series, ns.l)
    report = dispersion_report(model, series)
    columns = ("n", "series_value", "integral_value", "relative_error",
               "upper_cutoff", "node_count")
    rows = [
        (e.n, e.series_value, e.integral_value, e.relative_error,
         e.upper_cutoff, e.node_count)
        for e in report.entries
    ]
    return columns, rows, {}


def _figure_one():
    from .resum import standard_model

    rows = _sweep_rows(standard_model(3.0), _linear_grid(0.0, 1.0, GRID_POINTS))
    return ("field", "delta", "gamma"), rows, {"alpha": 3.0}


def _figure_two():
    from .resum import (STANDARD_SWEEP_RANGES, linear_tail_fit,
                        slope_exponent, standard_model, sweep)

    columns = ("alpha", "field", "delta", "gamma")
    rows = []
    cases = []
    slopes = []
    for alpha, top in STANDARD_SWEEP_RANGES:
        points = sweep(standard_model(alpha),
                       _linear_grid(0.0, top, GRID_POINTS))
        rows.extend((alpha, pt.field, pt.delta, pt.gamma) for pt in points)
        fit = linear_tail_fit(points)
        cases.append({
            "alpha": alpha,
            "window_fraction": fit.window_fraction,
            "r_squared": fit.r_squared,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "critical_field": fit.critical_field,
        })
        slopes.append(((alpha - 1.0) / 2.0, fit.slope))
    extra = {"cases": cases, "slope_exponent": slope_exponent(slopes)}
    return columns, rows, extra


def _figure_three():
    from .resum import _lower_side, standard_model
    from .wkb import LANDAU_COMPARISON_RANGES, landau_calibrated_rate

    columns = ("alpha", "field", "gamma", "gamma_landau")
    rows = []
    cases = []
    for alpha, lo, hi in LANDAU_COMPARISON_RANGES:
        p = (alpha - 1.0) / 2.0
        fields = _log_grid(lo, hi, GRID_POINTS)
        # one rate grid, which never forms Re E
        gammas = [abs(rate) for rate in
                  _lower_side(standard_model(alpha), fields, True)]
        calibration_field, calibrated = landau_calibrated_rate(
            p, fields, gammas)
        rows.extend((alpha, field, gamma, rate)
                    for gamma, (field, rate) in zip(gammas, calibrated))
        cases.append({"alpha": alpha, "calibration_field": calibration_field})
    return columns, rows, {"cases": cases}


def _cmd_reproduce(ns: argparse.Namespace):
    return {1: _figure_one, 2: _figure_two, 3: _figure_three}[ns.figure]()


# ---------------------------------------------------------------------------
# serialization


def _render_csv(columns, rows) -> str:
    # "%.17g" % x equals format(x, ".17g"), nan, inf and -0.0 included; the
    # encoded cells fill one "%s" template for the whole table
    cells = tuple("%.17g" % v if isinstance(v, float) else "" if v is None
                  else v for row in rows for v in row)
    line = ",".join(["%s"] * len(columns)) + "\n"
    return ",".join(columns) + "\n" + line * len(rows) % cells


def _render_json(ns: argparse.Namespace, columns, rows, extra) -> str:
    import json  # CSV, the default format, needs no json

    # every parsed option but those that pick the handler and the output
    meta = {"command": ns.subcommand, "version": __version__}
    meta.update((key, value) for key, value in vars(ns).items()
                if key not in ("subcommand", "handler", "fmt", "output"))
    meta.update(extra)
    # the bytes of json.dumps({"meta": meta, "data": [dict(zip(columns, row))
    # for row in rows]}, indent=2, sort_keys=True); an indent sends json to
    # its pure-Python encoder, so the cells are encoded in one C-encoder call
    # and placed into one template for the whole data list; float() encodes
    # the one meta value json cannot, the exact (Fraction) alpha
    meta_text = json.dumps(meta, indent=2, sort_keys=True, default=float)
    data_text = "[]"
    if rows:
        keys = sorted(columns)
        order = [columns.index(key) for key in keys]
        cells = [row[i] for row in rows for i in order]
        # cells are flat scalars and ensure_ascii escapes control characters,
        # so a raw newline occurs only between encoded cells
        encoded = json.dumps(cells, separators=("\n", ": "))[1:-1].split("\n")
        fields = ",\n      ".join(
            json.dumps(key).replace("%", "%%") + ": %s" for key in keys)
        template = "    {\n      " + fields + "\n    }"
        data_text = ("[\n" + ",\n".join([template] * len(rows)) % tuple(encoded)
                     + "\n  ]")
    return ('{\n  "data": ' + data_text + ',\n  "meta": '
            + meta_text.replace("\n", "\n  ") + "\n}\n")


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".starkdim-{os.urandom(6).hex()}")
        try:
            # mode 0o666 less the umask, as a shell redirection creates it
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def run(argv=None) -> int:
    """Parse ``argv`` and execute; returns the process exit code.

    0 on success, 2 on input validation failure, 3 on numerical failure.
    """
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help/--version (0) and usage errors (2)
        return exc.code if isinstance(exc.code, int) else 2
    try:
        columns, rows, extra = ns.handler(ns)
        if ns.fmt == "csv":
            text = _render_csv(columns, rows)
        else:
            text = _render_json(ns, columns, rows, extra)
        if ns.output:
            try:
                _write_atomic(ns.output, text)
            except OSError as exc:
                raise InputError(f"cannot write {ns.output}: "
                                 f"{exc.strerror or exc}") from exc
        else:
            sys.stdout.write(text)
    except (InputError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 3
    return 0


def main() -> None:
    raise SystemExit(run())
