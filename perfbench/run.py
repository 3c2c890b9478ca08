"""starkdim benchmark: seeded closed-loop workloads, end-to-end and per-layer.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Workloads are ``figures``, ``dispersion`` and ``series`` (see workloads.py).
The package is imported from ``src/`` of the same checkout; the run stops
with exit code 2 if that source is missing.  BLAS is pinned to one thread
and every op runs in this one process.

``--trace 0`` repeats passes of fresh seeded inputs until ``--seconds`` is
spent (at least two passes) and reports the end-to-end metrics:

    setup_s      median time of fresh interpreters to import starkdim and
                 build the CLI parser
    wall_s       median over passes of the time to complete one pass of ops
    peak_rss_mb  peak resident memory of this process over the passes

Both times are scaled by a machine-speed probe (see PROBE_ITERATIONS); the
unscaled times are printed beside them.

It also prints, not gated, the latency of single ``sweep`` ops on
``figures`` (``sweep_p50_ms``, ``sweep_tail_ms``) and ``fail_ratio``.

``--trace 1`` ignores ``--seconds``: it runs one pass twice, untraced and
then traced, so that every count repeats exactly for a seed, and reports
the per-layer metrics of tracing.py plus import times from
``-X importtime``.  Spans are written to
``perfbench/out/spans-<workload>.csv``.

``--smoke`` shrinks every workload to a few small ops for a quick check of
the harness.  Outputs are checked after the timed passes; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT = 60
# The shared 2-core host the benchmark was defined on runs the same
# interpreter-bound work 20-30% faster or slower from one minute to the
# next.  A short probe loop timed before every op and every setup child
# tracks that speed: each pass, and the setup as a whole, is scaled by the
# median of the probes taken during it to the probe's reference time (its
# median on that host, an Intel Xeon), so that two runs of the same code
# compare even when the host's speed drifted between or within them.
PROBE_ITERATIONS = 50_000
PROBES_PER_OP = 5
REFERENCE_PROBE_S = 0.005

SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import starkdim.cli
starkdim.cli.build_parser()
print(time.perf_counter() - start)
"""

IMPORT_CODE = """\
import sys
sys.path.insert(0, {src!r})
import starkdim.cli
"""


def probe():
    """Seconds for a fixed pure-Python integer loop: the machine's current
    speed for interpreter-bound work like starkdim's."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def normalise(seconds, probes):
    """``seconds`` scaled to the speed at which the probe takes
    REFERENCE_PROBE_S, using the median of the probes taken during it."""
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


def _child(args):
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=os.environ,
                          capture_output=True, text=True, check=False,
                          timeout=CHILD_TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"child interpreter failed: {done.stderr.strip()}")
    return done


def measure_setup(repeats, probes):
    """Import-plus-parser times of fresh interpreters, each after a speed
    probe; one warm-up interpreter first compiles the bytecode caches."""
    code = SETUP_CODE.format(src=str(SRC))
    _child(["-c", code])
    times = []
    for _ in range(repeats):
        probes.extend(probe() for _ in range(PROBES_PER_OP))
        times.append(float(_child(["-c", code]).stdout))
    return times


def measure_imports(repeats):
    """Import times in s from ``-X importtime``: the whole package, and the
    summed self time of every numpy and scipy module it pulls in."""
    code = IMPORT_CODE.format(src=str(SRC))
    samples = {"import.starkdim_s": [], "import.scipy_s": [],
               "import.numpy_s": []}
    for _ in range(repeats):
        stderr = _child(["-X", "importtime", "-c", code]).stderr
        totals = dict.fromkeys(samples, 0)
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            fields = line[len("import time:"):].split("|")
            self_us, cumulative_us, name = fields
            module = name.strip()
            top_level = name.startswith(" ") and not name.startswith("  ")
            if top_level and module.split(".")[0] == "starkdim":
                totals["import.starkdim_s"] += int(cumulative_us)
            for key, package in (("import.scipy_s", "scipy"),
                                 ("import.numpy_s", "numpy")):
                if module.split(".")[0] == package:
                    totals[key] += int(self_us)
        for key in samples:
            samples[key].append(totals[key] / 1e6)
    return {key: statistics.median(values) for key, values in samples.items()}


def metadata(seed):
    import mpmath
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def git_commit():
    """Commit of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_pass(workload, specs, pass_index, ops, probes, tracer=None):
    """Issue one pass of ops in a closed loop, each after a speed probe;
    returns the summed op latency."""
    from workloads import Op

    wall = 0.0
    for kind, inputs in specs:
        op = Op(len(ops), pass_index, kind, inputs, traced=tracer is not None)
        ops.append(op)
        call = workload.call(op)
        samples = [probe() for _ in range(PROBES_PER_OP)]
        probes.extend(samples)
        op.probe = statistics.median(samples)
        start = time.perf_counter()
        try:
            if tracer is None:
                result = call()
            else:
                tracer.op = op.id
                with tracer.span("bench.op"):
                    result = call()
        except Exception as exc:  # an op that raises counts as failed
            op.latency = time.perf_counter() - start
            op.error = f"{type(exc).__name__}: {exc}"
        else:
            op.latency = time.perf_counter() - start
            workload.collect(op, result)
            if tracer is not None:
                tracer.bytes_out += op.nbytes
        wall += op.latency
    return wall


def tail(values):
    """Highest nearest-rank percentile with at least ten values above it;
    returns (value, percentile), or (max, None) with ten values or fewer."""
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], None
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def load_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for key in ("end_to_end", "per_layer") for m in spec[key]}


def untraced_run(workload, seconds, smoke, ops):
    """Passes until the next one would overrun ``seconds`` (smoke: the
    minimum); returns the pass times and the same times scaled by the
    probes taken during each pass."""
    walls, scaled = [], []
    start = time.perf_counter()
    while True:
        specs = workload.make_pass(len(walls))
        probes = []
        walls.append(run_pass(workload, specs, len(walls), ops, probes))
        scaled.append(normalise(walls[-1], probes))
        if len(walls) >= MIN_PASSES and (
                smoke or time.perf_counter() - start + statistics.fmean(walls)
                > seconds):
            return walls, scaled


def traced_run(workload, ops):
    """Run the first pass untraced, then the same inputs traced; returns the
    tracer and the two pass times."""
    from tracing import Tracer

    specs = workload.make_pass(0)
    untraced = run_pass(workload, specs, 0, ops, [])
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, specs, 0, ops, [], tracer)
    finally:
        tracer.uninstall()
    return tracer, traced, untraced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "dispersion", "series"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few small ops per workload")
    args = parser.parse_args(argv)

    if not (SRC / "starkdim" / "__init__.py").is_file():
        print(f"error: no starkdim package under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import starkdim

    if Path(starkdim.__file__).resolve().parent != SRC / "starkdim":
        print(f"error: starkdim imported from {starkdim.__file__},"
              f" not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    units = load_units()
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT, prefix="run-")
    try:
        workload = WORKLOADS[args.workload](scratch, args.seed, args.smoke)
        ops = []
        report = {"workload": args.workload,
                  "smoke": args.smoke, "trace": args.trace}
        metrics = {}
        if args.trace:
            imports = measure_imports(1 if args.smoke else IMPORTTIME_REPEATS)
            tracer, traced, untraced = traced_run(workload, ops)
            from tracing import layer_metrics

            metrics.update(imports)
            metrics.update(layer_metrics(tracer, traced, untraced))
            spans_path = OUT / f"spans-{args.workload}.csv"
            tracer.write_spans(spans_path)
            report.update(traced_wall=traced, untraced_wall=untraced,
                          missing_patch_points=tracer.missing,
                          spans=str(spans_path.relative_to(ROOT)))
        else:
            probes = []
            setups = measure_setup(1 if args.smoke else SETUP_REPEATS, probes)
            walls, scaled = untraced_run(workload, args.seconds, args.smoke,
                                         ops)
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics.update(
                setup_s=normalise(statistics.median(setups), probes),
                wall_s=statistics.median(scaled),
                peak_rss_mb=peak_rss / 1024.0)
            report.update(setup_samples=setups, pass_walls=walls,
                          scaled_pass_walls=scaled,
                          raw_setup_s=statistics.median(setups),
                          raw_wall_s=statistics.median(walls),
                          setup_probe_s=statistics.median(probes))
        report["meta"] = metadata(args.seed)
        check_rng = random.Random(f"{args.workload}:{args.seed}:check")
        report["checks"] = workload.check(ops, check_rng)
        # in a traced run each pass runs twice; describe the traced copy
        report["properties"] = workload.properties(
            [op for op in ops if op.traced or not args.trace])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [op for op in ops if op.error or op.failures]
    report["failures"] = [
        {"op": op.id, "kind": op.kind, "inputs": [str(x) for x in op.inputs],
         "error": op.error, "checks": op.failures} for op in failed]
    sweeps = [op.latency * 1e3 for op in ops if op.kind == "sweep"]
    if sweeps and not args.trace:
        tail_ms, percentile = tail(sweeps)
        report.update(sweep_p50_ms=statistics.median(sweeps),
                      sweep_tail_ms=tail_ms, sweep_tail_percentile=percentile,
                      sweep_ops=len(sweeps))
    report["op_latencies_s"] = [(op.pass_index, op.kind, str(op.inputs),
                                 op.latency, op.probe) for op in ops]
    report["metrics"] = metrics
    result_path = OUT / f"result-{args.workload}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print_report(args, report, metrics, units, len(ops), failed)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


def print_report(args, report, metrics, units, attempted, failed):
    print("meta " + json.dumps(report["meta"]))
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops;"
          f" properties {json.dumps(report['properties'], default=str)}")
    print(f"checks {json.dumps(report['checks'])}")
    if "pass_walls" in report:
        walls = ", ".join(f"{w:.4f}" for w in report["pass_walls"])
        scaled = ", ".join(f"{w:.4f}" for w in report["scaled_pass_walls"])
        print(f"passes {len(report['pass_walls'])}: wall s [{walls}],"
              f" scaled [{scaled}]")
        print(f"raw (unscaled) setup_s {report['raw_setup_s']} s,"
              f" wall_s {report['raw_wall_s']} s; speed probe median"
              f" {report['setup_probe_s']} s at setup (reference"
              f" {REFERENCE_PROBE_S} s)")
    for key, value in metrics.items():
        print(f"{key} {value} {units.get(key, '')}")
    if "sweep_p50_ms" in report:
        percentile = report["sweep_tail_percentile"]
        where = (f"p{percentile:.1f}, 10 ops beyond it" if percentile
                 else "max, 10 or fewer ops")
        print(f"sweep_p50_ms {report['sweep_p50_ms']} ms"
              f" ({report['sweep_ops']} sweep ops)")
        print(f"sweep_tail_ms {report['sweep_tail_ms']} ms ({where},"
              f" {report['sweep_ops']} sweep ops)")
    if args.trace:
        from tracing import LAYERS

        wall = metrics["trace.wall_s"]
        attributed = wall - metrics["trace.unattributed_s"]
        print(f"trace: layer self times sum to {attributed:.6f} s of traced"
              f" wall {wall:.6f} s; unattributed"
              f" {metrics['trace.unattributed_s']:.6f} s;"
              f" overhead {metrics['trace.overhead_s']:.6f} s per pass")
        for layer in LAYERS:
            share = metrics[f"{layer}.self_s"] / wall if wall else 0.0
            print(f"  {layer:9s} self {metrics[f'{layer}.self_s']:.6f} s"
                  f" ({100 * share:.1f}%)")
        if report["missing_patch_points"]:
            print("trace: missing patch points "
                  + ", ".join(report["missing_patch_points"]))
    ratio = len(failed) / attempted if attempted else 0.0
    print(f"fail_ratio {ratio} ({len(failed)} failed / {attempted} attempted)")
    for item in report["failures"]:
        print(f"FAILED op {item['op']} {item['kind']} {item['inputs']}:"
              f" {item['error'] or '; '.join(item['checks'])}")


if __name__ == "__main__":
    sys.exit(main())
