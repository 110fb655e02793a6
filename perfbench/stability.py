#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/stability.py --workload field_catalogue --seeds 1-10
    python3 perfbench/stability.py --workload all --seeds 1-10 --out perfbench/baseline.json

For every end-to-end metric it prints the median and the quartile spread
(Q3 - Q1) / median over the seeds, with statistics.quantiles(values, n=4),
next to the metric's bound from BENCHMARK.json.  Runs are sequential.
With --out, the figures are merged into that JSON file under the workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for workload in workloads:
        results = [run(workload, s, bench["run_seconds"], args.trace)
                   for s in seed_list(args.seeds)]
        names = list(results[0]["metrics"])
        stats = {n: summarize([r["metrics"][n]["value"] for r in results]) for n in names}
        summary[workload] = {
            "seeds": seed_list(args.seeds), "trace": args.trace,
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "metrics": stats,
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed={summary[workload]['failed']}")
        for n, st in stats.items():
            bound = bounds.get(n)
            flag = "" if bound is None or st["spread"] is None else (
                "ok" if st["spread"] < bound / 3 else
                "WITHIN BOUND" if st["spread"] <= bound else "OVER BOUND")
            print(f"  {n:40s} median {st['median']:.6g}  spread {st['spread']}"
                  f"  bound {bound}  {flag}")
    if args.out:
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                merged = json.load(fh)
        key = "trace1" if args.trace else "trace0"
        for workload, data in summary.items():
            merged.setdefault(workload, {})[key] = data
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
