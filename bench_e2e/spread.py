#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Runs the command of BENCHMARK.json once per seed, exactly as given there,
and prints for every metric of the final JSON line the median over the
runs and the interquartile range as a share of the median (quartiles as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound in BENCHMARK.json.

    python3 bench_e2e/spread.py --workload equi_hop --runs 10 [--trace 0]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", args.trace],
            check=True, capture_output=True, text=True,
        ).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        steal = [l.split()[2] for l in lines if l.startswith("metric host.steal_share ")]
        if not result["correct"]:
            print(f"seed {seed}: incorrect ({result['failed']} failed)", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed} (steal {', '.join(steal)}): " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"{'metric':34} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:34} {med:12.6g} {spread:11.4f} {bound if bound is not None else '-':>6}{flag}")


if __name__ == "__main__":
    main()
