#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload route-plan --seeds 1-10 [--trace 0] [--seconds S] [--log F]

Run from the repository root. Runs the command in BENCHMARK.json once per
seed and prints, per metric, the median, the quartile spread as a share of
the median (Python's statistics.quantiles, n=4) and the metric's bound from
BENCHMARK.json, flagging spreads at or above a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--log", help="append every run's full stdout to this file")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = a.seconds or bench["run_seconds"]

    values = {}
    for seed in seeds(a.seeds):
        cmd = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", a.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        if a.log:
            with open(a.log, "a") as f:
                f.write(out)
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        line = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)

    print(f"\n{'metric':28} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:28} {med:12.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
