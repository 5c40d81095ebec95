#!/usr/bin/env python3
"""Runs one workload at several seeds and prints each metric's median and
quartile spread, (Q3 - Q1) / median over statistics.quantiles(values,
n=4), next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --workload serve-fleet --seeds 1-5

Run it from the root of the repository. Every run is a separate process,
one after another.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct: {result}")
        row = []
        for name, m in sorted(result["metrics"].items()):
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.6g}")
        # Metrics printed on their own lines but not gated.
        for line in out.splitlines():
            if "reported, not gated" in line:
                name, v = line.split()[:2]
                values.setdefault(name, []).append(float(v))
                row.append(f"{name}={float(v):.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        line = f"{name:28s} median {med:<12.6g}"
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
            line += f" spread {spread:.4f}"
            if bounds.get(name):
                line += f" (bound {bounds[name]}, {spread / bounds[name]:.2f} of it)"
        print(line)


if __name__ == "__main__":
    main()
