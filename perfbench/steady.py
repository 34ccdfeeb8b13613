#!/usr/bin/env python3
"""Steadiness report for the host-cost benchmark.

Runs each workload N times, at seeds 1..N, and prints the median and
quartiles of every end-to-end metric. An end-to-end metric whose spread
(interquartile range over median) exceeds its bound in BENCHMARK.json is
flagged, and so is one above a third of its bound, the margin a steady
benchmark keeps. Each workload's report starts with the host facts the
benchmark printed (nproc, GOMAXPROCS, Go version, CPU model, commit), so
figures from different hosts are never compared. Run from the repository
root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads bulk_small --seconds 20

It exits nonzero when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    """Returns the run's result object and its host-facts line, or
    (None, None) when the run failed."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None, None
    return result, lines[0]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bad = False
    for w in args.workloads.split(","):
        values = {}
        failed = 0
        host = "host: unknown (no run succeeded)"
        for seed in range(1, args.runs + 1):
            res, facts = run_once(spec["command"], w, seed, args.seconds)
            if res is None:
                failed += 1
                print(f"{w} seed {seed}: FAILED")
                continue
            host = facts
            for name, m in res["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
        bad |= failed > 0
        print(f"\n{w}: {args.runs - failed}/{args.runs} runs correct")
        print(f"  {host}")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, (vals, unit) in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "OVER BOUND"
                    bad = True
                elif spread > bound / 3:
                    flag = "above bound/3"
            print(f"  {name:32} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {unit} {flag}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
