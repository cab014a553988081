#!/usr/bin/env python3
"""Steadiness mode: runs each workload N times with consecutive seeds and
prints, per workload and end-to-end metric, the median, the quartiles, and
the spread (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                                [--seconds S] [--out results.json]

Run it from the repository root. A spread under a third of the bound is
steady; setup_s is reported but not judged, as its bound guards the
median between two sets of runs, not the spread within one. With --out,
every run's result line is saved so two sets can be compared with
--compare FIRST SECOND (medians of the second no worse than the first by
more than each bound).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


def summarize(spec, results):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    steady = True
    for workload, runs in results.items():
        ok = all(r["correct"] and r["failed"] == 0 for r in runs)
        elapsed = statistics.median(r["elapsed_s"] for r in runs)
        print(f"== {workload}: {len(runs)} runs, correct={ok}, median run {elapsed:.1f} s")
        steady &= ok
        for name, m in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            judged = name != "setup_s"
            verdict = "ok" if spread < m["bound"] / 3 else ("WIDE" if judged else "-")
            steady &= verdict != "WIDE"
            print(f"  {name:<16} median={med:<12.6g} q1={q1:<12.6g} q3={q3:<12.6g} "
                  f"spread={spread:7.4f} bound={m['bound']:<5} {verdict}")
    return steady


def compare(spec, first, second):
    worse = []
    for m in spec["end_to_end"]:
        for workload in first:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[workload])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[workload])
            change = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "WORSE" if change > m["bound"] else "ok"
            if flag != "ok":
                worse.append((workload, m["name"]))
            print(f"  {workload:<12} {m['name']:<16} {a:<12.6g} -> {b:<12.6g} "
                  f"worse by {change:+.4f} (bound {m['bound']}) {flag}")
    return not worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        sys.exit(0 if compare(spec, first, second) else 1)

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    results = {}
    for workload in names:
        results[workload] = []
        for i in range(args.runs):
            result = run_once(spec, workload, args.seed0 + i, seconds)
            results[workload].append(result)
            print(f"{workload} seed {args.seed0 + i}: {json.dumps(result['metrics'])}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    sys.exit(0 if summarize(spec, results) else 1)


if __name__ == "__main__":
    main()
