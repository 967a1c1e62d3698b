#!/usr/bin/env python3
"""Runs workloads over several seeds and reports how much each metric spreads.

    python3 ecbench/spread.py --workloads scan-small,sim-ycsb --seeds 1-10 [--trace 0]

Each run goes through ecbench/run.py with BENCHMARK.json's run_seconds.
For every metric the report gives the median, the quartiles
(statistics.quantiles, n=4) and the spread: the distance between the
quartiles as a share of the median. For end-to-end
metrics the spread is compared with the bound in BENCHMARK.json; "steady"
means below a third of it. Raw results are appended to
.bench_out/spread.jsonl.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "ecbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            started = time.monotonic()
            result = run(workload, seed, seconds, args.trace)
            took = time.monotonic() - started
            with open(os.path.join(ROOT, ".bench_out", "spread.jsonl"), "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed} done in {took:.1f} s", file=sys.stderr)
        print(f"{workload}: {len(args.seeds)} seeds, {seconds} s runs")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = f"bound {bound:<5} {'steady' if spread < bound / 3 else 'NOT STEADY'}"
            print(f"  {name:34} median {med:<14.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:7.4f}  {verdict}")


if __name__ == "__main__":
    main()
