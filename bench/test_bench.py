"""Tests of the benchmark itself: ``python -m pytest bench -q``.

They cover the self-time rollup, the scaling of times to the reference
host speed, the metric names, units and directions against
``BENCHMARK.json``, and a one-request run of every workload, untraced
and traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# request 0: [0, 10] > evaluate [1, 7] > compile [2, 5] > lower [3, 4],
#            and simulate [8, 9]; request 1: one simulate [20, 21.5]
SPANS = [
    ["request", 0.0, 10.0, -1, 0],
    ["plan.evaluate", 1.0, 7.0, 0, 0],
    ["parallel.compile", 2.0, 5.0, 1, 0],
    ["simulation.lower", 3.0, 4.0, 2, 0],
    ["simulation.run", 8.0, 9.0, 0, 0],
    ["request", 20.0, 21.5, -1, 1],
    ["simulation.run", 20.0, 21.5, 5, 1],
]


def run_bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_rollup_subtracts_direct_children_only():
    rows = tracer.rollup(SPANS)
    assert rows["request"] == {"calls": 2, "total_s": 11.5, "self_s": 3.0}
    assert rows["plan.evaluate"]["self_s"] == 3.0
    assert rows["parallel.compile"]["self_s"] == 2.0
    assert rows["simulation.lower"]["self_s"] == 1.0
    assert rows["simulation.run"] == {"calls": 2, "total_s": 2.5,
                                      "self_s": 2.5}


def test_layer_metrics_are_per_request():
    doc = {"requests": 2, "spans": SPANS,
           "counters": {"cache.plan.hit": 1, "cache.plan.miss": 3,
                        "outcomes": 4, "pruned.midsim": 1}}
    metrics = tracer.layer_metrics(doc, overhead_ratio=0.05)
    assert set(metrics) == set(tracer.PER_LAYER)
    assert metrics["simulation.run.calls"] == 1.0
    assert metrics["simulation.run.self_s"] == 1.25
    assert metrics["request.self_s"] == 1.5
    assert metrics["plan.plan_hit_ratio"] == 0.25
    assert metrics["plan.pruned_ratio.midsim"] == 0.25
    assert metrics["agent.forward.self_s"] == 0.0
    assert metrics["trace.overhead_ratio"] == 0.05


def test_end_to_end_scales_times_to_reference_speed():
    result = {"requests": 2, "latencies": [1.0, 3.0], "cpu": [1.0, 2.0],
              "scales": [0.5, 2.0],
              "setups": [(1.0, 0.5), (2.0, 1.0), (3.0, 2.0)],
              "plan_times": [0.1, float("nan")], "peak_rss_mb": 100.0}
    scaled = run.end_to_end(result)
    assert scaled["latency_s.p50"] == 3.25
    assert scaled["requests_per_s"] == 2 / 6.5
    assert scaled["cpu_s_per_request"] == 2.25
    assert scaled["setup_s"] == 2.0
    assert scaled["plan_time_ms"] == pytest.approx(100.0)


def test_calibration_walk_visits_every_entry_once():
    speed = hostspeed.HostSpeed(entries=1000)
    seen, i = set(), 0
    for _ in range(1000):
        seen.add(i)
        i = speed._next[i]
    assert i == 0 and len(seen) == 1000
    assert speed.measure() > 0


def test_absent_entry_point_warns_instead_of_failing():
    recorder = tracer.SpanRecorder([
        ("gone.method", "json", "NoSuchClass.method"),
        ("gone.module", "no_such_module_anywhere", "function"),
    ])
    with pytest.warns(UserWarning, match="absent"):
        recorder.install()
    recorder.uninstall()
    assert recorder.absent == ["gone.method", "gone.module"]


def test_imported_function_is_wrapped_in_every_module():
    sys.path.insert(0, str(run.ROOT / "src"))
    try:
        kernel = pytest.importorskip("repro.simulation.kernel")
        import repro.plan.builder as builder
    finally:
        sys.path.pop(0)
    original = kernel.lower
    recorder = tracer.SpanRecorder([("simulation.lower",
                                     "repro.simulation.kernel", "lower")])
    recorder.install()
    try:
        assert builder.lower is kernel.lower is not original
    finally:
        recorder.uninstall()
    assert builder.lower is kernel.lower is original


def test_metrics_match_benchmark_json():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == tracer.PER_LAYER
    largest = max(bound for _, _, bound in run.END_TO_END.values())
    assert run.END_TO_END["setup_s"][2] == largest


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_one_request_smoke(workload, trace):
    proc = run_bench("--workload", workload, "--requests", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    expected = tracer.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {name: spec[0] for name, spec in expected.items()}
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_digest():
    digests = []
    for _ in range(2):
        proc = run_bench("--workload", "fault_replan", "--requests", "2",
                         "--seed", "7")
        assert proc.returncode == 0, proc.stderr
        digests += [line.split()[-1] for line in proc.stdout.splitlines()
                    if line.strip().startswith("result_digest")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_the_planner_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "search_cold", "--seed", "0",
                     "--seconds", "20", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
