#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs every named workload once per seed and prints, per metric, the
median, the quartiles (as Python's statistics.quantiles(n=4) gives
them) and the spread: the distance between the quartiles as a share of
the median. Run it from the repository root after building:

    CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
        --manifest-path perfbench/Cargo.toml
    python3 perfbench/spread.py --seeds 1-10 --workloads fleet-steady,what-if

Pass --json FILE to keep every run's result line.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="fleet-steady,fleet-day,what-if,plan-offline")
    ap.add_argument("--seconds", default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--json", default=None)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(target, "release", "adept-perfbench")
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or str(bench["run_seconds"])
    runs = {}
    for workload in args.workloads.split(","):
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True, check=False,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or out.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{out.stdout}")
            runs.setdefault(workload, []).append(result)
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)

    print(f"{'workload':<14} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload, results in runs.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- wide"
            print(f"{workload:<14} {name:<12} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>8.4f} {bound:>6}{flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
