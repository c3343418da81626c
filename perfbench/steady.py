"""Steadiness check: run one workload k times, each with another seed, and
print for every end-to-end metric its median, quartiles and spread next to
the metric's bound from ``BENCHMARK.json``.

    python3 perfbench/steady.py --workload f4_dblp --runs 10 [--out FILE]

Run ``i`` uses ``--seed i``. The spread is ``(Q3 − Q1) / median`` with the
quartiles of ``statistics.quantiles(values, n=4)``. A metric is steady when
its spread is below a third of its bound. Runs are sequential; each is a
fresh process.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict | None, float, int]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None:
        sys.stderr.write(proc.stderr[-4000:])
    return result, wall, proc.returncode


def report(bench: dict, results: list[dict]) -> bool:
    steady = True
    print(f"{'metric':<16} {'unit':<6} {'median':>11} {'Q1':>11} {'Q3':>11} {'spread':>7} {'bound':>6}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("inf")
        if spread < m["bound"] / 3:
            verdict = "steady"
        else:
            verdict = "within bound" if spread <= m["bound"] else "TOO WIDE"
            steady = False
        print(f"{m['name']:<16} {m['unit']:<6} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} "
              f"{spread:>7.3f} {m['bound']:>6.2f}  {verdict}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")
    return steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", help="write every run's result to this JSON file")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    results = []
    for seed in range(1, args.runs + 1):
        result, wall, rc = run_once(args.workload, seed, bench["run_seconds"])
        if result is None:
            print(f"seed {seed}: exit code {rc} after {wall:.1f}s, no result")
            return 1
        results.append(dict(result, seed=seed, wall_s=wall))
        brief = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {brief}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if report(bench, results) else 1


if __name__ == "__main__":
    sys.exit(main())
