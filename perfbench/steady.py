#!/usr/bin/env python3
"""Steadiness check: run each workload n times and summarise every metric.

    python3 perfbench/steady.py [--runs N] [--seed0 S] [--trace]
                                [--out FILE] [--against FILE]

Run from the repository root. Every workload of BENCHMARK.json runs for
its run_seconds; run i of a workload uses seed S + i. For
every metric the script prints the median, the first and third quartiles
(Python's statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median. An end-to-end metric is
steady when its spread is within its bound in BENCHMARK.json. It also prints the share of failed
operations and, for sim-web, the signed error of F^ and D^ against the
simulator's ground truth over every replicate.

--out saves the raw results as JSON; --against FILE compares this set's
medians with a saved set's and flags any metric worse by more than its
bound. The exit code is 1 if any run was incorrect or unsteady.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


REPLICATE = re.compile(r"F (\S+) F\^ (\S+) D (\S+)s D\^ (\S+)s")


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["replicates"] = [
        [float(x) for x in m.groups()] for m in map(REPLICATE.search, lines) if m
    ]
    return result


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def signed_errors(runs):
    """Median and range of (estimate - truth) / truth over all replicates."""
    f_err, d_err = [], []
    for r in runs:
        for f, f_hat, d, d_hat in r["replicates"]:
            f_err.append((f_hat - f) / f)
            d_err.append((d_hat - d) / d)
    return f_err, d_err


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--against")
    args = ap.parse_args()

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    results = {}
    ok = True
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for i in range(args.runs):
            r = run_once(bench["command"], workload, args.seed0 + i, seconds, args.trace)
            runs.append(r)
            print(f"  {workload} seed {args.seed0 + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}", file=sys.stderr)
        results[workload] = runs
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        ok &= correct
        print(f"\n{workload}: {len(runs)} runs of {seconds}s, seeds "
              f"{args.seed0}..{args.seed0 + len(runs) - 1}, correct={correct}, "
              f"failed share {shares}")
        print(f"| metric | unit | median | Q1 | Q3 | spread | bound | steady |")
        print(f"|---|---|---|---|---|---|---|---|")
        for spec in specs:
            name = spec["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summary(values)
            bound = spec.get("bound")
            if bound is None:
                verdict = "-"
            else:
                steady = spread <= bound
                ok &= steady
                verdict = "yes" if steady else "NO"
            print(f"| {name} | {spec['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.3f} | {bound if bound is not None else '-'} | {verdict} |")
        if any(r["replicates"] for r in runs):
            f_err, d_err = signed_errors(runs)
            for label, err in (("F^", f_err), ("D^", d_err)):
                print(f"{label} signed error over {len(err)} replicates: median "
                      f"{statistics.median(err):+.1%}, range {min(err):+.1%} .. {max(err):+.1%}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    if args.against:
        with open(args.against) as f:
            base = json.load(f)
        print("\nmedian drift against", args.against)
        for workload, runs in results.items():
            if workload not in base:
                continue
            for spec in specs:
                if "bound" not in spec:
                    continue
                name = spec["name"]
                old = statistics.median(r["metrics"][name]["value"] for r in base[workload])
                new = statistics.median(r["metrics"][name]["value"] for r in runs)
                worse = (new - old) / old if spec["better"] == "lower" else (old - new) / old
                within = worse <= spec["bound"]
                ok &= within
                print(f"  {workload} {name}: {old:.6g} -> {new:.6g} "
                      f"({worse:+.1%} worse), {'ok' if within else 'EXCEEDS BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
