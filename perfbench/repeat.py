#!/usr/bin/env python3
"""Repeat mode: run one workload N times, one seed each, and summarize.

    python3 perfbench/repeat.py --workload lattice-patches --runs 10 [--trace 0]

Run i (i = 1..N) takes seed i.  Each run is a fresh `perfbench/run.py`
process, started only after the previous one has ended, with
BENCHMARK.json's run length.  For every metric the summary gives the
median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and for end-to-end metrics that spread as a share of
the metric's bound.  It also prints the failed share of each run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values, shares = {}, []
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {args.runs} runs, failed shares {sorted(set(shares))}")
    print(f"{'metric':<40}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'/bound':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        tail = f"{bound:>7.2f}{spread / bound:>8.2f}" if bound else ""
        print(f"{name:<40}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{spread:>9.3f}{tail}")


if __name__ == "__main__":
    main()
