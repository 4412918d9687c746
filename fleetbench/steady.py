#!/usr/bin/env python3
"""Run benchmark workloads repeatedly and print each metric's spread.

    python3 fleetbench/steady.py [--runs N] [--first-seed S] [--trace 0|1]
                                 [--smoke] [WORKLOAD ...]

Run from the repository root. Every run uses the command and
run_seconds in BENCHMARK.json, each with its own seed (first-seed,
first-seed + 1, ...). For each workload and metric the script prints
the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median, and,
for end-to-end metrics, the bound from BENCHMARK.json, marked "!" when
the spread is above a third of it. It exits non-zero if a run fails,
reports an incorrect output or a failed operation, prints other metrics
than BENCHMARK.json declares for the mode, or if the share of failed
operations differs between runs of a workload.

--smoke runs every workload once on a small fleet for one second: a
quick end-to-end check that each workload runs and passes its oracle.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace, smoke):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        args.append("--smoke")
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), took, proc.stderr


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*", default=names)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    seconds = bench["run_seconds"]
    if a.smoke:
        a.runs, seconds = 1, 1
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    declared = {(m["name"], m["unit"]) for m in bench["per_layer" if a.trace else "end_to_end"]}
    ok = True
    for w in a.workloads:
        values, shares, took = {}, set(), []
        for i in range(a.runs):
            seed = a.first_seed + i
            res, secs, err = run_once(bench["command"], w, seed, seconds, a.trace, a.smoke)
            took.append(secs)
            if not res["correct"] or res["failed"]:
                ok = False
                sys.stderr.write(err)
                print(f"{w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
            shares.add(res["failed"] / res["attempted"])
            printed = {(n, m["unit"]) for n, m in res["metrics"].items()}
            if printed != declared:
                ok = False
                print(f"{w} seed {seed}: metrics differ from BENCHMARK.json: "
                      f"{sorted(printed ^ declared)}")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if len(shares) > 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
        print(f"\n{w}: {a.runs} runs, {min(took):.0f}-{max(took):.0f} s each")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], 0, v[0])
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = " !" if bound is not None and spread > bound / 3 else ""
            print(f"  {name:28} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
