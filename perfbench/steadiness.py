#!/usr/bin/env python3
"""Steadiness check for the benchmark defined in BENCHMARK.json.

Runs the benchmark command once per seed on each workload and reports,
for every end-to-end metric, the median and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound. A benchmark is steady
when every spread except setup_s stays well within its bound.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --seeds 1-5 --workloads linear-runs
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(names), help="comma-separated")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--log", help="append every result line to this file")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit code {out.returncode}")
            line = out.stdout.strip().splitlines()[-1]
            if args.log:
                with open(args.log, "a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed, "result": json.loads(line)}) + "\n")
            result = json.loads(line)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
                steady = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread <= bounds[name] / 3
            steady &= ok
            print(f"{workload:18} {name:15} median {med:12.6g}  spread {spread:7.4f}  "
                  f"bound {bounds[name]:.2f}  {'ok' if ok else 'WIDE'}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
