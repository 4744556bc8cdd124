#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command of BENCHMARK.json once per seed on each named
workload and prints, per metric, the median and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound.

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [--seconds S]
                                [-v] [WORKLOAD ...]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5, help="seeds per workload, at least 2")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("-v", "--verbose", action="store_true", help="print every value")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for w in names:
        runs = []
        t0 = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            runs.append(res)
            ok = ok and res["correct"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{w}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}, "
              f"{(time.monotonic() - t0) / len(runs):.1f} s per run")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            bound = m["bound"]
            mark = "  OVER BOUND" if spread > bound else ("  over 1/3 bound" if spread > bound / 3 else "")
            print(f"  {m['name']:<40} median {q2:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound}{mark}")
            if args.verbose:
                print("      " + " ".join(f"{v:.5g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
