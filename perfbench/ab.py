#!/usr/bin/env python3
"""Repeat runs of the benchmark and compare their spread, or two checkouts A/B.

    # spread of one checkout over ten seeds
    python3 perfbench/ab.py --workload injection_dift --seeds 1-10 --seconds 36 .
    # parent vs change, interleaved, alternating which side runs first
    python3 perfbench/ab.py --workload injection_dift --seeds 1-10 --seconds 36 \\
        ../parent .

Each directory is the root of a checkout holding perfbench/run.py. For every
metric of the result line this prints the median, the quartiles (Python's
statistics.quantiles, n=4) and the spread (Q3 - Q1) / median of each side;
with two sides also the ratio of medians B/A and how many seed pairs B won.
Pass --json FILE to keep every run's record and result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(root, args, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = [ln for ln in out.stdout.splitlines() if ln.strip()]
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"ab: run in {root} with seed {seed} failed "
                 f"(exit {out.returncode})")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="+", help="checkout A [and checkout B]")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every run here")
    args = ap.parse_args()
    if len(args.roots) > 2:
        ap.error("at most two checkouts")
    with open(os.path.join(args.roots[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"]
              for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {root: [] for root in args.roots}
    for i, seed in enumerate(seeds_of(args.seeds)):
        order = args.roots if i % 2 == 0 else args.roots[::-1]
        for root in order:
            record, result = run_once(root, args, seed)
            runs[root].append({"seed": seed, "record": record,
                               "result": result})
            print(f"seed {seed} {root}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)

    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)

    a = args.roots[0]
    b = args.roots[1] if len(args.roots) > 1 else None
    names = list(runs[a][0]["result"]["metrics"])
    print(f"{'metric':36} {'side':4} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8}")
    for name in names:
        for side, root in (("A", a), ("B", b)):
            if root is None:
                continue
            vals = [r["result"]["metrics"][name]["value"] for r in runs[root]]
            med, q1, q3, spread = summary(vals)
            print(f"{name:36} {side:4} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{spread:8.4f}")
        if b is not None:
            va = [r["result"]["metrics"][name]["value"] for r in runs[a]]
            vb = [r["result"]["metrics"][name]["value"] for r in runs[b]]
            sign = -1 if better.get(name) == "lower" else 1
            wins = sum(1 for x, y in zip(va, vb) if sign * (y - x) > 0)
            ma = statistics.median(va)
            ratio = statistics.median(vb) / ma if ma else float("nan")
            print(f"{name:36} B/A  {ratio:14.6g}   B won {wins}/{len(va)} "
                  f"pairs")
    bad = [r for root in args.roots for r in runs[root]
           if not r["result"]["correct"]]
    if bad:
        print(f"{len(bad)} run(s) reported correct=false", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
