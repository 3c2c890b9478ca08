"""Smoke tests of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
Each workload runs once untraced and once traced in ``--smoke`` mode; the
printed metric names and units must match BENCHMARK.json exactly.
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]]
    names += [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_generators_repeat_for_a_seed(tmp_path):
    from workloads import WORKLOADS as classes

    for cls in classes.values():
        first = cls(str(tmp_path), 3, False).make_pass(1)
        again = cls(str(tmp_path), 3, False).make_pass(1)
        other = cls(str(tmp_path), 3 + 1, False).make_pass(1)
        assert first == again
        assert first != other


def test_tail_has_ten_values_beyond_it():
    from run import tail

    values = list(range(1, 25))
    random.Random(0).shuffle(values)
    value, percentile = tail(values)
    assert sum(v > value for v in values) == 10
    assert percentile == pytest.approx(100 * 14 / 24)
    assert tail([3, 1, 2]) == (3, None)


def test_self_time_subtracts_children():
    from tracing import Tracer

    tracer = Tracer()
    tracer.spans = [("bench.op", 0, 100, -1, 0), ("cli.run", 10, 90, 0, 0),
                    ("resum.sweep", 20, 50, 1, 0),
                    ("resum.sweep", 50, 80, 1, 0)]
    assert tracer.self_times() == [20, 20, 30, 30]
