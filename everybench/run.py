#!/usr/bin/env python3
"""Run one everybench workload and print its result line.

usage (from the repository root):
    python3 everybench/run.py --workload echo_small|sched_batch|sc98 \
        --seed N --seconds S --trace 0|1

Builds the benchmark and the EveryWare libraries from source into
.bench_build/everybench (a no-op once built), runs the workload, checks
its result against BENCHMARK.json and prints it as the last line of
standard output:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": V, "unit": "<unit>"}, ...}}

--trace 0 reports every end-to-end metric, --trace 1 every per-layer
metric; a per-layer metric whose layer the workload does not run reads 0.
Exits non-zero, without a result line, if the build or the run fails, and
non-zero with "correct": false if a correctness check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "everybench")
BINARY = os.path.join(BUILD, "everybench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"everybench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build; returns False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no EveryWare sources under {ROOT}/src")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_contract()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    if not build():
        return 2

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-out", os.path.join(spans, f"{args.workload}-seed{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return 3
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{args.workload}: malformed result line: {lines[-1][:200]}")
        return 3

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result["metrics"]
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                log(f"{args.workload} did not report {m['name']}")
                return 3
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}  # layer not on this path
        elif got["unit"] != m["unit"]:
            log(f"{m['name']}: unit {got['unit']}, BENCHMARK.json says {m['unit']}")
            return 3
    names = {m["name"] for m in wanted}
    result["metrics"] = {k: v for k, v in sorted(metrics.items()) if k in names}
    extra = sorted(set(metrics) - names)
    if extra:
        log("not in BENCHMARK.json, dropped: " + ", ".join(extra))

    print(json.dumps({"correct": bool(result["correct"] and proc.returncode == 0),
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
