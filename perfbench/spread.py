"""Run a workload once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload oracle --seeds 1-10
    python3 perfbench/spread.py --workload corpus --seeds 1-5 --trace 1

Each run is ``run.py`` in a fresh interpreter, one at a time, with the
``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median,
next to the metric's bound.
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
ROOT = HERE.parent
# a run may take this long: the first one in a checkout also compiles
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values) -> tuple:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=parse_seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"], result["wall_s"] = seed, wall
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}, attempted"
              f" {result['attempted']}, failed {result['failed']},"
              f" {wall:.1f} s", flush=True)
    if len(runs) < 2:
        return 0
    print(f"{'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        med, q1, q3, share = spread([r["metrics"][name]["value"] for r in runs])
        bound = bounds.get(name)
        flag = "" if bound is None else ("  over bound/3" if share > bound / 3 else "")
        print(f"{name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f}"
              f" {'' if bound is None else bound:>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
