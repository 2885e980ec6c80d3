"""Tests of the benchmark itself: span arithmetic, output contract, runs.

Run from the repository root::

    python3 -m pytest perfbench -q

The last tests launch real (short) benchmark runs and take about a
minute together.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from schema import check_result, expected_metrics, load_benchmark  # noqa: E402
from tracing import SpanRecorder, install, layer_metrics, self_times  # noqa: E402


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_children():
    # children [1, 5] and [3, 7] cover [1, 7]: 6 of the parent's 10
    out = self_times([0.0, 1.0, 3.0], [10.0, 5.0, 7.0], [-1, 0, 0])
    assert out[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    # a child reaching past its parent's end covers only the overlap
    out = self_times([0.0, 8.0], [10.0, 12.0], [-1, 0])
    assert out == pytest.approx([8.0, 4.0])


def test_self_time_of_leaves_is_their_duration():
    assert self_times([1.0, 2.5], [2.0, 4.0], [-1, -1]) == \
        pytest.approx([1.0, 1.5])


def _fake_layer_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def kernel(x):
        return x + 1

    class Backend:
        def coupling(self, x):
            return mod.kernel(x)

    mod.kernel = kernel
    mod.Backend = Backend
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_install_records_nested_spans_and_uninstalls(monkeypatch):
    mod = _fake_layer_module(monkeypatch)
    rec = SpanRecorder()
    uninstall = install(rec, targets=(
        (mod.__name__, "kernel", "kernel.call"),
        (mod.__name__, "Backend.coupling", "backend.coupling"),
        (mod.__name__, "Missing.attr", "nowhere"),
    ))
    backend = mod.Backend()
    assert backend.coupling(1) == 2          # outside an operation
    assert len(rec.start) == 0
    with rec.operation("campaign"):
        assert backend.coupling(1) == 2
        assert backend.coupling(2) == 3
    uninstall()
    with rec.operation("campaign"):
        backend.coupling(3)
    names = [rec.names[i] for i in rec.name_id]
    assert names == ["op.campaign", "backend.coupling", "kernel.call",
                     "backend.coupling", "kernel.call", "op.campaign"]
    assert list(rec.parent) == [-1, 0, 1, 0, 3, -1]
    assert rec.missing == [f"{mod.__name__}.Missing.attr"]

    metrics = layer_metrics(rec, overhead=1.0)
    # per operation that reaches the layer: 2 calls in the first op
    assert metrics["kernel.calls"] == (2.0, "count")
    assert metrics["backend.coupling_calls"] == (2.0, "count")
    coverage = metrics["trace.coverage"][0]
    assert 0.0 <= coverage <= 1.0


def test_counters_belong_to_the_open_operation():
    rec = SpanRecorder()
    rec.count("cache.hit")                      # no operation: dropped
    with rec.operation("replay"):
        rec.count("cache.hit", 3)
        rec.count("cache.miss")
    with rec.operation("replay"):
        rec.count("cache.hit")
    assert rec.counters == {("cache.hit", 0): 3.0, ("cache.miss", 0): 1.0,
                            ("cache.hit", 1): 1.0}
    assert layer_metrics(rec, overhead=1.0)["cache.hit_ratio"][0] == 0.8


def test_layer_metrics_cover_every_declared_per_layer_metric():
    rec = SpanRecorder()
    with rec.operation("campaign"):
        pass
    names = expected_metrics(load_benchmark(ROOT), trace=True)
    metrics = layer_metrics(rec, overhead=1.0)
    assert set(metrics) == set(names)
    assert all(unit == names[k] for k, (_, unit) in metrics.items())


# ----------------------------------------------------------------------
# output contract
# ----------------------------------------------------------------------
def _good_result(trace: bool) -> dict:
    names = expected_metrics(load_benchmark(ROOT), trace)
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {k: {"value": 1.25, "unit": u}
                        for k, u in names.items()}}


@pytest.mark.parametrize("trace", [False, True])
def test_schema_accepts_a_good_result(trace):
    names = expected_metrics(load_benchmark(ROOT), trace)
    assert check_result(_good_result(trace), names) == []


@pytest.mark.parametrize("breakage", [
    lambda r: r.pop("failed"),
    lambda r: r.update(extra=1),
    lambda r: r.update(attempted=0),
    lambda r: r.update(attempted=True),
    lambda r: r.update(failed=5),
    lambda r: r.update(correct="yes"),
    lambda r: r["metrics"].pop("campaign_s"),
    lambda r: r["metrics"].update(bogus={"value": 1.0, "unit": "s"}),
    lambda r: r["metrics"]["setup_s"].update(unit="ms"),
    lambda r: r["metrics"]["setup_s"].update(value=math.inf),
    lambda r: r["metrics"]["setup_s"].update(value=True),
    lambda r: r["metrics"]["setup_s"].update(note="x"),
])
def test_schema_rejects_a_broken_result(breakage):
    result = _good_result(False)
    breakage(result)
    names = expected_metrics(load_benchmark(ROOT), False)
    assert check_result(result, names)


def test_benchmark_json_shape():
    bench = load_benchmark(ROOT)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert unit_re.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(name_re.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    layers = json.loads((HERE / "layers.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    assert {k for row in layers["layers"] for k in row["metrics"]} <= declared
    assert {row["workload"] for row in layers["workloads"]} == \
        {w["name"] for w in bench["workloads"]}


# ----------------------------------------------------------------------
# real runs
# ----------------------------------------------------------------------
def _run(args, cwd=ROOT, timeout=400):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


def test_traced_run_covers_the_campaign():
    done = _run(["--workload", "ring_large", "--seed", "3", "--seconds", "6",
                 "--trace", "1"])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    names = expected_metrics(load_benchmark(ROOT), trace=True)
    assert check_result(result, names) == []
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_untraced_run_prints_every_end_to_end_metric():
    done = _run(["--workload", "campaign_cache", "--seed", "2",
                 "--seconds", "4", "--trace", "0"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    host = json.loads(lines[-2])["host"]
    assert host["cpu_count"] >= 1 and "kernel" in host
    result = json.loads(lines[-1])
    names = expected_metrics(load_benchmark(ROOT), trace=False)
    assert check_result(result, names) == []
    assert result["correct"]
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "ring_large", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
