#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 carbench/spread.py --workload NAME [--seeds 1,2,...] \
        [--seconds S] [--trace 0|1]

Runs carbench/run.py once per seed and prints, for every metric, its
median, its quartiles and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound from
BENCHMARK.json.  A benchmark is steady when every spread, setup_s aside,
stays well inside its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import summary  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", seed, "--seconds", str(seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})\n"
                  + proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: {len(args.seeds.split(','))} runs of "
          f"{seconds:g} s")
    print(f"  {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, series in values.items():
        q1, q2, q3 = summary.quartiles(series)
        bound = bounds.get(name)
        print(f"  {name:<30} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{summary.relative_spread(series):>8.4f} "
              f"{bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
