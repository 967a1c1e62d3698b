#!/usr/bin/env python3
"""Builds the EC-Store benchmark from source and runs one workload.

    python3 ecbench/run.py --workload scan-small|sim-ycsb \
        --seed N --seconds S --trace 0|1

The first run configures and builds ecbench/ (the repository's libraries
from src/ plus the benchmark program) into .bench_build/ecbench; later runs
rebuild only what changed. Build output goes to stderr. The program's
report passes through to stdout; its JSON result line is checked against
BENCHMARK.json and printed again, in BENCHMARK.json's order, as the last
line. A traced run writes its spans to
.bench_out/spans-<workload>-<seed>.csv. The exit status is 0 only when the
build, the run and every output check succeeded.
"""
import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "ecbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ecbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then builds incrementally; returns the binary or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ecbench: no EC-Store sources under src/", file=sys.stderr)
        return None
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as err:
            print(f"ecbench: build step failed: {err}", file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "ecbench")


def conform(result, trace, report):
    """Fits the program's result line to BENCHMARK.json, the only metric list.

    Puts the metrics in BENCHMARK.json's order. A per-layer metric the
    workload has no layer for reads 0 with base n/a; a missing end-to-end
    metric, an unlisted one, a wrong unit or a value that is not a finite
    number makes the result incorrect. Each problem is written to `report`.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    got = dict(result.get("metrics", {}))
    metrics = {}
    for m in spec:
        name, unit = m["name"], m["unit"]
        entry = got.pop(name, None)
        if entry is None:
            if not trace:
                report.append(f"VIOLATION end-to-end metric {name} not reported")
                result["correct"] = False
            else:
                report.append(f"metric {name:34} {0:14} {unit:10} n/a on this workload")
            entry = {"value": 0, "unit": unit}
        value = entry.get("value")
        if (entry.get("unit") != unit or isinstance(value, bool)
                or not isinstance(value, (int, float)) or not math.isfinite(value)):
            report.append(f"VIOLATION metric {name} is {entry}, not a finite number in {unit}")
            result["correct"] = False
            entry = {"value": 0, "unit": unit}
        metrics[name] = entry
    for name in got:
        report.append(f"VIOLATION metric {name} is not in BENCHMARK.json")
        result["correct"] = False
    result["metrics"] = metrics
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.csv")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print("ecbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict):
        sys.stdout.write(proc.stdout)
        print(f"ecbench: program exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1

    report = []
    result = conform(result, args.trace, report)
    for line in lines[:-1] + report:
        print(line)
    print(json.dumps(result))
    if proc.returncode != 0:
        return proc.returncode
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
