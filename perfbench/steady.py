#!/usr/bin/env python3
"""Steadiness tool: runs one workload k times and reports each metric's spread.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload served -k 5
    python3 perfbench/steady.py --workload update-mix -k 10 --seed0 100

Each run uses another seed (seed0, seed0 + 1, ...) and lasts BENCHMARK.json's
run_seconds. For every metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median. A
metric whose spread exceeds its bound in BENCHMARK.json is flagged EXCEEDS; one
above a third of its bound is flagged noisy. With --trace 1 the per-layer metrics are shown (they have no bound).
With --out the raw results are written as JSON lines for later comparison.
The exit code is 1 when any run fails, is incorrect, or a metric exceeds its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_bounds():
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return spec, {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append raw results here (JSON lines)")
    args = ap.parse_args()

    spec, bounds = load_bounds()
    seconds = spec["run_seconds"]
    values = {}
    units = {}
    bad = False
    for i in range(args.k):
        seed = args.seed0 + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            bad = True
            continue
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    "trace": args.trace,
                                    "result": result}) + "\n")
        status = "ok" if result["correct"] and result["failed"] == 0 else "BAD"
        bad = bad or status != "ok"
        print(f"seed {seed}: {status} attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{'metric':40} {'unit':>9} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for name, v in values.items():
        med = statistics.median(v)
        if len(v) >= 2:
            q1, _, q3 = statistics.quantiles(v, n=4)
        else:
            q1 = q3 = v[0]
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name) if args.trace == 0 else None
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "EXCEEDS"
                bad = True
            elif spread > bound / 3:
                flag = "noisy"
        print(f"{name:40} {units[name]:>9} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
