"""Run the benchmark over several seeds and report, per workload and
metric, the median and the quartile spread (Q3 - Q1 over the median),
the figures a bound in BENCHMARK.json is checked against.

    python3 perfbench/spread.py --workloads pieri_formula,cache_session \\
        --seeds 1-10 [--seconds 20] [--trace 0] [--out runs.json]

Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    """The run's result line, with the run's own wall time added as
    run_wall_s (what a run costs the caller, set-up included)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_wall_s"] = time.perf_counter() - t0
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, args.trace)
                for s in args.seeds]
        values = {}
        for r in runs:
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_wall_s": [round(r["run_wall_s"], 3) for r in runs],
            "values": values,
            "summary": {n: summary(v) for n, v in values.items()},
        }
        walls = report[workload]["run_wall_s"]
        print(f"{workload}: correct={report[workload]['correct']} "
              f"failed={report[workload]['failed']} "
              f"run wall {min(walls):.1f}-{max(walls):.1f} s")
        for name, s in report[workload]["summary"].items():
            print(f"  {name:38s} median {s['median']:12.6f}  "
                  f"spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
