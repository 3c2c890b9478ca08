"""Span tracing at the boundaries between starkdim's layers.

A ``Tracer`` replaces public functions at the module attribute through which
the calling layer finds them (``starkdim.resum.gauss_2f1`` is what
``resum`` calls, ``starkdim.validate.resonance`` is what ``validate``
calls, and so on).  Each wrapper records one span: name, start, end, parent
span and op id.  Spans stay in memory until ``write_spans`` is called.

Span names are ``<layer>.<what>``; the layer is the module that owns the
wrapped function, or ``bench`` for the harness's own op span.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from numbers import Rational

import starkdim.cli
import starkdim.coeffs
import starkdim.resum
import starkdim.validate

# resonance points whose continuation argument x = 1 + Re(h3) (F/4)^2 reaches
# this value count as evaluated far out on the cut
FAR_CUT_X = 100.0


def _energy_series_name(args, kwargs):
    alpha = args[0] if args else kwargs["alpha"]
    return "coeffs.exact" if isinstance(alpha, Rational) else "coeffs.float"


# (module, attribute, span name or function of the call's arguments);
# the module is the calling layer, the span name names the called layer
PATCH_POINTS = (
    (starkdim.cli, "run", "cli.run"),
    (starkdim.cli, "energy_series", _energy_series_name),
    (starkdim.cli, "symbolic_energy_series", "coeffs.symbolic"),
    (starkdim.cli, "standard_model", "resum.standard_model"),
    (starkdim.cli, "fit_model", "resum.fit"),
    (starkdim.cli, "fit_round_trip_residual", "resum.residual"),
    (starkdim.cli, "sweep", "resum.sweep"),
    (starkdim.cli, "linear_tail_fit", "resum.tailfit"),
    (starkdim.cli, "slope_exponent", "resum.slope"),
    (starkdim.cli, "dispersion_report", "validate.report"),
    (starkdim.cli, "barrier_model", "wkb.barrier"),
    (starkdim.cli, "landau_calibrated_rate", "wkb.landau"),
    (starkdim.cli, "landau_closed_form", "wkb.landau"),
    (starkdim.cli, "pick_calibration_reference", "wkb.reference"),
    (starkdim.coeffs, "energy_series", _energy_series_name),
    (starkdim.coeffs, "symbolic_energy_series", "coeffs.symbolic"),
    (starkdim.resum, "energy_series", _energy_series_name),
    (starkdim.resum, "fit_model", "resum.fit"),
    (starkdim.resum, "resonance", "resum.resonance"),
    (starkdim.resum, "gauss_2f1", "specfun.gauss_2f1"),
    (starkdim.resum, "complex_gamma", "specfun.complex_gamma"),
    (starkdim.resum, "rising_factorial", "specfun.rising_factorial"),
    (starkdim.validate, "resonance", "resum.resonance"),
    (starkdim.validate, "dispersion_report", "validate.report"),
)

LAYERS = ("bench", "cli", "coeffs", "resum", "specfun", "wkb", "validate")


class Tracer:
    """In-memory span recorder plus the work counters measured at the same
    boundaries.  ``install`` patches the module attributes, ``uninstall``
    restores them."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index, op id)
        self._stack = []
        self.op = -1
        self._saved = []
        self.missing = []
        self.far_cut_points = 0
        self.fit_alphas = set()
        self.fit_repeats = 0
        self.orders = {"coeffs.exact": [], "coeffs.symbolic": []}
        self.sweep_points = 0
        self.quad_nodes = 0
        self.worst_rel_err = 0.0
        self.bytes_out = 0

    # -- recording ---------------------------------------------------------

    def span(self, name):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start):
        end = time.perf_counter_ns()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, original, name):
        tracer = self
        on_return = _ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            on_call = _ON_CALL.get(label)
            if on_call is not None:
                on_call(tracer, args, kwargs)
            index, parent = tracer._open(label)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index, parent, label, start)
            if on_return is not None:
                on_return(tracer, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def install(self):
        for module, attr, name in PATCH_POINTS:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Per-span self time in ns, as a list aligned with ``spans``."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent,op\n")
            for name, start, end, parent, op in self.spans:
                handle.write(f"{name},{start},{end},{parent},{op}\n")


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index, self.parent = self.tracer._open(self.name)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.index, self.parent, self.name, self.start)
        return False


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _note_resonance(tracer, args, kwargs):
    model = _arg(args, kwargs, 0, "model")
    field = float(_arg(args, kwargs, 1, "field"))
    if 1.0 + model.h3.real * (field / 4.0) ** 2 >= FAR_CUT_X:
        tracer.far_cut_points += 1


def _note_fit(tracer, args, kwargs):
    series = _arg(args, kwargs, 0, "series")
    l = kwargs.get("l", args[1] if len(args) > 1 else starkdim.resum.DEFAULT_L)
    key = (Fraction(series.alpha), float(l))
    if key in tracer.fit_alphas:
        tracer.fit_repeats += 1
    tracer.fit_alphas.add(key)


def _note_report(tracer, report):
    for entry in report.entries:
        tracer.quad_nodes += entry.node_count
        tracer.worst_rel_err = max(tracer.worst_rel_err, entry.relative_error)


def _note_sweep(tracer, args, kwargs):
    tracer.sweep_points += len(_arg(args, kwargs, 1, "fields"))


def _note_exact(tracer, args, kwargs):
    tracer.orders["coeffs.exact"].append(_arg(args, kwargs, 1, "order"))


def _note_symbolic(tracer, args, kwargs):
    tracer.orders["coeffs.symbolic"].append(_arg(args, kwargs, 0, "order"))


_ON_CALL = {
    "resum.resonance": _note_resonance,
    "resum.fit": _note_fit,
    "resum.sweep": _note_sweep,
    "coeffs.exact": _note_exact,
    "coeffs.symbolic": _note_symbolic,
}
_ON_RETURN = {"validate.report": _note_report}


def layer_metrics(tracer, traced_wall, untraced_wall):
    """Per-layer metrics from the recorded spans, as {name: value}.

    ``traced_wall`` and ``untraced_wall`` are the times (s) of one pass run
    traced and of the same pass run untraced.
    """
    selfs = tracer.self_times()
    calls = {}
    total = {}
    self_by_name = {}
    self_by_layer = dict.fromkeys(LAYERS, 0)
    rate_evals = 0
    for i, (name, start, end, parent, _) in enumerate(tracer.spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + (end - start)
        self_by_name[name] = self_by_name.get(name, 0) + selfs[i]
        self_by_layer[name.split(".", 1)[0]] += selfs[i]
        if (name == "resum.resonance" and parent >= 0
                and tracer.spans[parent][0] == "validate.report"):
            rate_evals += 1

    def n(name):
        return calls.get(name, 0)

    def s(name):
        return total.get(name, 0) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    resonances = n("resum.resonance")
    gauss = n("specfun.gauss_2f1")
    attributed = sum(self_by_layer.values()) / 1e9
    return {
        "cli.calls": n("cli.run"),
        "cli.s": s("cli.run"),
        "cli.self_s": self_by_layer["cli"] / 1e9,
        "cli.bytes_out": tracer.bytes_out,
        "coeffs.exact.calls": n("coeffs.exact"),
        "coeffs.exact.s": s("coeffs.exact"),
        "coeffs.exact.orders": mean(tracer.orders["coeffs.exact"]),
        "coeffs.float.calls": n("coeffs.float"),
        "coeffs.float.s": s("coeffs.float"),
        "coeffs.symbolic.calls": n("coeffs.symbolic"),
        "coeffs.symbolic.s": s("coeffs.symbolic"),
        "coeffs.symbolic.orders": mean(tracer.orders["coeffs.symbolic"]),
        "coeffs.self_s": self_by_layer["coeffs"] / 1e9,
        "resum.fit.calls": n("resum.fit"),
        "resum.fit.self_s": self_by_name.get("resum.fit", 0) / 1e9,
        "resum.fit.repeat_share": ratio(tracer.fit_repeats, n("resum.fit")),
        "resum.sweep.calls": n("resum.sweep"),
        "resum.sweep.points": tracer.sweep_points,
        "resum.sweep.s": s("resum.sweep"),
        "resum.resonance.calls": resonances,
        "resum.resonance.self_s": self_by_name.get("resum.resonance", 0) / 1e9,
        "resum.tailfit.calls": n("resum.tailfit"),
        "resum.tailfit.s": s("resum.tailfit"),
        "resum.f21_per_point": ratio(gauss, resonances),
        "resum.far_cut_share": ratio(tracer.far_cut_points, resonances),
        "resum.self_s": self_by_layer["resum"] / 1e9,
        "specfun.gauss_2f1.calls": gauss,
        "specfun.gauss_2f1.s": s("specfun.gauss_2f1"),
        "specfun.gauss_2f1.us_per_call": ratio(
            total.get("specfun.gauss_2f1", 0) / 1e3, gauss),
        "specfun.complex_gamma.calls": n("specfun.complex_gamma"),
        "specfun.complex_gamma.s": s("specfun.complex_gamma"),
        "specfun.self_s": self_by_layer["specfun"] / 1e9,
        "wkb.barrier.calls": n("wkb.barrier"),
        "wkb.barrier.s": s("wkb.barrier"),
        "wkb.landau.calls": n("wkb.landau"),
        "wkb.landau.s": s("wkb.landau"),
        "wkb.self_s": self_by_layer["wkb"] / 1e9,
        "validate.report.calls": n("validate.report"),
        "validate.report.s": s("validate.report"),
        "validate.self_s": self_by_layer["validate"] / 1e9,
        "validate.rate_evals": rate_evals,
        "validate.quad_nodes": tracer.quad_nodes,
        "validate.useful_ratio": ratio(tracer.quad_nodes, rate_evals),
        "validate.worst_rel_err": tracer.worst_rel_err,
        "bench.self_s": self_by_layer["bench"] / 1e9,
        "trace.wall_s": traced_wall,
        "trace.unattributed_s": traced_wall - attributed,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.spans": len(tracer.spans),
    }
