"""Is the benchmark steady?  Two alternating sets of runs of the same code.

    python3 bench/stability.py [--runs 5] [--workload NAME ...]
                               [--seconds S] [--seed N | --vary-seed]

Runs each workload ``2 * runs`` times, alternating between set A and
set B (A B, B A, A B, ...).  By default every run uses the same seed
(``--seed``, default 0), so the two sets measure run-to-run noise of
identical work.  With ``--vary-seed`` run ``k`` of either set uses seed
``k`` instead: the spread then also holds how much the inputs of ten
seeds differ, which is what a check across seeds sees.

For every end-to-end metric it prints each set's median and quartiles,
the spread (interquartile distance over the median) and how much worse
set B's median is than set A's, next to the metric's bound.  It also
checks that runs of one seed gave the same ``result_digest``.

Exit status 1 when a spread other than ``setup_s``'s exceeds its bound,
a drift exceeds its bound, a digest differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Dict, List

import run


def invoke(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run of one workload, as ``run.py`` would make it."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=seconds,
                              requests=0, trace=0)
    start = time.monotonic()
    try:
        result = run.run_workload(args)
    except run.BenchError as exc:
        raise SystemExit(f"{workload} seed {seed}: {exc}") from None
    result["seed"] = seed
    result["wall_s"] = time.monotonic() - start
    return result


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def check_workload(workload: str, runs: int, seconds: float,
                   seed: int, vary_seed: bool) -> bool:
    sets: Dict[str, List[dict]] = {"A": [], "B": []}
    for k in range(runs):
        for name in ("AB" if k % 2 == 0 else "BA"):
            sets[name].append(invoke(workload, k if vary_seed else seed,
                                     seconds))
    ok = True
    seeds = f"seeds 0..{runs - 1}" if vary_seed else f"seed {seed}"
    print(f"== {workload}: 2 sets x {runs} runs, {seeds}, alternating")
    print(f"  {'metric':20s} set {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s}  {'drift':>7s} {'bound':>6s}  verdict")
    for metric, (unit, better, bound) in run.END_TO_END.items():
        stats = {name: summary([r["metrics"][metric] for r in results])
                 for name, results in sets.items()}
        a, b = stats["A"]["median"], stats["B"]["median"]
        drift = (b - a) / a if better == "lower" else (a - b) / a
        verdict = "ok"
        if abs(drift) > bound / 2:
            verdict = "drift over half the bound"
        noisy = [n for n, s in stats.items()
                 if metric != "setup_s" and s["spread"] > bound]
        if noisy or drift > bound:
            verdict, ok = "FAIL", False
        for name, s in stats.items():
            tail = (f"  {drift:+7.1%} {bound:6.1%}  {verdict}"
                    if name == "B" else "")
            print(f"  {metric if name == 'A' else '':20s} {name:>3s} "
                  f"{s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:7.1%}{tail}")
    digests: Dict[int, set] = {}
    for r in sets["A"] + sets["B"]:
        digests.setdefault(r["seed"], set()).add(r["digest"])
        if r["failed"]:
            print(f"  seed {r['seed']}: {r['failed']} failed requests: "
                  f"{r['problems']}")
            ok = False
    for k, found in sorted(digests.items()):
        if len(found) > 1:
            print(f"  seed {k}: result_digest differs: {sorted(found)}")
            ok = False
    run.OUT_DIR.mkdir(exist_ok=True)
    (run.OUT_DIR / f"stability-{workload}.json").write_text(json.dumps(
        {name: [{key: r[key] for key in ("seed", "metrics", "digest",
                                         "failed", "wall_s")}
                for r in results] for name, results in sets.items()}))
    walls = [r["wall_s"] for results in sets.values() for r in results]
    print(f"  wall per run: median {statistics.median(walls):.1f} s, "
          f"max {max(walls):.1f} s", flush=True)
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0,
                        help="the seed of every run (default 0)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="run k of each set uses seed k")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")
    ok = True
    for workload in args.workload or run.WORKLOADS:
        ok = check_workload(workload, args.runs, args.seconds, args.seed,
                            args.vary_seed) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
