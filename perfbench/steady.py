#!/usr/bin/env python3
"""Checks that the benchmark is steady: runs one workload once per seed
and prints, for every end-to-end metric, its median and the distance
between the first and third quartile as a share of the median, next to
the bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload NAME [--seeds 1,2,3,...] [--out FILE]

Run it from the repository root. --out appends each run's result line to
FILE as JSON, for the record.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[section]}
    values = {name: [] for name in bounds}
    for seed in args.seeds.split(","):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", seed, "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(last)
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": int(seed), "result": result}) + "\n")
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    ok = True
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / abs(med) if med else 0.0
        bound = bounds[name]
        mark = ""
        if bound is not None and name != "setup_s":
            mark = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            ok = ok and spread <= bound
        print(f"{name:<28} median {med:>16.6g}  spread {spread:.4f}  bound {bound}  {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
