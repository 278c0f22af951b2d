"""Whole-request planning benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--requests N]

Runs each workload (all four when ``--workload`` is not given) in a
fresh process with one BLAS thread and a fixed hash seed, prints every
metric by name with its unit, direction, bound and sample count, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` answers the requests again under the span recorder and reports the
per-layer metrics instead, writing the spans to ``.bench_out/``.  Times
are scaled to the reference host speed (``hostspeed.py``).

Exit status: 0 when every answer passed its checks, 1 when one failed,
2 when the benchmark could not run (for example without ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
RESULT_TAG = "BENCH_RESULT "   # marks the workload process's result line
WORKLOADS = ("search_cold", "search_population", "fault_replan",
             "service_mix")
SETUPS = 3                 # setup_s is the median of this many setups
DEADLINE_S = 170.0         # one workload, all its processes
HYGIENE = {
    # set before numpy loads: BLAS threads spinning on a 2-core box
    # add CPU time that is not the planner's
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# name: (unit, better, bound as a share of the parent's median)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "latency_s.p50": ("s", "lower", 0.25),
    "requests_per_s": ("1/s", "higher", 0.25),
    "cpu_s_per_request": ("s", "lower", 0.25),
    "plan_time_ms": ("ms", "lower", 0.16),
    "peak_rss_mb": ("MB", "lower", 0.05),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ, **HYGIENE)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: argparse.Namespace, deadline: float,
              *extra: str) -> dict:
    """Run workload.py once in a fresh process; return its result."""
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--requests", str(args.requests),
           "--trace", str(args.trace), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{args.workload}: out of time before a run")
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(time.monotonic())],
                              env=child_env(), cwd=ROOT, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload}: no result within "
                         f"{DEADLINE_S:.0f} s") from None
    tagged = [line for line in proc.stdout.splitlines()
              if line.startswith(RESULT_TAG)]
    if proc.returncode != 0 or not tagged:
        raise BenchError(f"{args.workload}: workload process exited "
                         f"{proc.returncode} without a result")
    return json.loads(tagged[-1][len(RESULT_TAG):])


def geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(result: dict) -> Dict[str, float]:
    """The end-to-end metrics, times scaled to the reference speed."""
    n = result["requests"]
    scales = result["scales"]
    latencies = [t * f for t, f in zip(result["latencies"], scales)]
    setups = [s * f for s, f in result["setups"]]
    times = [t for t in result["plan_times"] if math.isfinite(t) and t > 0]
    return {
        "setup_s": statistics.median(setups),
        "latency_s.p50": statistics.median(latencies),
        "requests_per_s": n / sum(latencies),
        "cpu_s_per_request": sum(
            c * f for c, f in zip(result["cpu"], scales)) / n,
        "plan_time_ms": 1e3 * geomean(times) if times else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def run_workload(args: argparse.Namespace) -> dict:
    """All processes of one workload: setups, then the measured run."""
    deadline = time.monotonic() + DEADLINE_S
    setups = [run_child(args, deadline, "--setup-only")
              for _ in range(SETUPS - 1)]
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
    result = run_child(args, deadline, "--trace-file", str(trace_file))
    result["setups"] = [(r["setup_s"], r["setup_scale"])
                        for r in setups + [result]]
    if args.trace:
        result["metrics"] = result["layers"]
        result["trace_file"] = str(trace_file)
    else:
        result["metrics"] = end_to_end(result)
    return result


def report(args: argparse.Namespace, result: dict) -> None:
    """Human-readable table for one workload."""
    n = result["requests"]
    print(f"== {args.workload}  seed {args.seed}  {n} requests, closed loop "
          f"with one client{'  [traced]' if args.trace else ''}")
    print("environment: nproc=" + str(os.cpu_count()) + " "
          + " ".join(f"{k}={v}" for k, v in HYGIENE.items()))
    answers = sum(1 for t in result["plan_times"] if math.isfinite(t))
    samples = {"setup_s": len(result["setups"]), "latency_s.p50": n,
               "requests_per_s": n, "cpu_s_per_request": n,
               "plan_time_ms": answers, "peak_rss_mb": 1}
    print(f"  {'metric':36s} {'value':>14s}  {'unit':6s} {'better':6s} "
          f"{'bound':>6s}  samples")
    for name, value in result["metrics"].items():
        if args.trace:
            unit, better = tracer.PER_LAYER[name]
            bound, count = "-", str(n)
        else:
            unit, better, share = END_TO_END[name]
            sign = "-" if better == "higher" else "+"
            bound, count = f"{sign}{share:.1%}", str(samples[name])
        print(f"  {name:36s} {value:14.6f}  {unit:6s} {better:6s} "
              f"{bound:>6s}  {count:>7s}")
    failed = result["failed"]
    print(f"  {'failed_ratio':36s} {failed / n:14.6f}  {'ratio':6s} "
          f"{'lower':6s} {'+0':>6s}  {n:>7d}")
    print(f"  result_digest {result['digest']}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    for layer in result.get("absent_layers", ()):
        print(f"  warning: layer {layer} is absent; its metrics read 0")
    if "trace_file" in result:
        shares = tracer.self_time_shares(tracer.load(result["trace_file"]))
        print("  self-time shares: " + ", ".join(
            f"{name} {share:.1%}" for name, share in shares[:12]))
        print(f"  spans written to {result['trace_file']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Whole-request planning benchmark")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one by one)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; request i uses seed*1000+i")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="target measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--requests", type=int, default=0,
                        help="fixed request count (default: from --seconds)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no planner source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    attempted = failed = 0
    metrics: Dict[str, Dict[str, object]] = {}
    units = tracer.PER_LAYER if args.trace else END_TO_END
    try:
        for name in names:
            args.workload = name
            result = run_workload(args)
            report(args, result)
            attempted += result["requests"]
            failed += result["failed"]
            prefix = "" if len(names) == 1 else name + "."
            for metric, value in result["metrics"].items():
                metrics[prefix + metric] = {"value": value,
                                            "unit": units[metric][0]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
