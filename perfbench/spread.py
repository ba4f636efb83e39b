#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one workload at a time.

From the root of a checkout:

    python3 perfbench/spread.py --workload cli-512 --seeds 1-10 [--out runs.json]

Runs the benchmark command from BENCHMARK.json once per seed, sequentially,
with --trace 0 and the declared run_seconds, and prints for every end-to-end
metric the median, the quartiles (statistics.quantiles, n=4), the
interquartile spread as a share of the median, and that spread against the
metric's bound.  A spread must stay below a third of the bound for the
benchmark to count as steady.  --out saves the summary and every run's
result as JSON, each with its measured (unscaled) figures.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--out", default=None, help="write the summary and every run's result here")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if done.returncode != 0 or result is None or not result["correct"]:
            sys.stdout.write(done.stdout + done.stderr)
            sys.exit(f"seed {seed}: run failed with exit code {done.returncode}")
        def tagged(tag):
            return next((json.loads(line.split(":", 1)[1]) for line in lines
                         if line.startswith(f"# {tag}:")), None)

        runs.append({"seed": seed, "machine": tagged("machine"), **result,
                     "measured": tagged("measured")})
        values = ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {values}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs of {seconds} s")
    print(f"  {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    summary = {}
    for metric in bench["end_to_end"]:
        vals = [r["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med
        summary[metric["name"]] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                                   "spread": spread, "bound": metric["bound"]}
        flag = "" if spread < metric["bound"] / 3 else "  <- above bound/3"
        print(f"  {metric['name']:14s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {metric['bound']:6.2f}{flag}")
    if args.out:
        record = {"workload": args.workload, "seconds": seconds, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
