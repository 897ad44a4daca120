#!/usr/bin/env python3
"""Builds and runs one libsoi benchmark workload.

Usage, from the root of a source checkout:

    python3 soibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark compiles libsoi from ./src together with the sources in
this directory (CMake, Release) into ./.bench_build, runs the workload, checks
that its metrics are exactly the ones BENCHMARK.json declares for the
mode (end_to_end for --trace 0, per_layer for --trace 1), and prints, as
the last line of stdout, one JSON object with the keys correct,
attempted, failed and metrics. The line before it is a report with the
build provenance, the thread/connection budget and per-workload details.
Build output and diagnostics go to stderr. Exit status is 0 only when
the run completed and every answer checked was correct.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "soibench")


def fail(message):
    print("soibench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    build()
    work = os.path.join(BUILD, "work")
    os.makedirs(work, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                          cwd=ROOT, timeout=170)
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        fail("workload printed no result (exit %d)" % done.returncode)
    result = json.loads(lines[-1])

    # Every declared metric, with its declared unit. A per-layer metric
    # of a layer this workload does not drive reads 0.
    measured = result["metrics"]
    metrics = {}
    for name, unit in declared.items():
        if name in measured:
            if measured[name]["unit"] != unit:
                fail("metric %s has unit %s, BENCHMARK.json says %s"
                     % (name, measured[name]["unit"], unit))
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail("workload did not measure end-to-end metric " + name)
    unknown = sorted(set(measured) - set(units))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    budget = {k: v for k, v in result["details"].items() if k.startswith("budget.")}
    over = [k for k, v in budget.items() if v > result["build_info"]["hardware_threads"]]
    if over:
        fail("thread/connection budget above nproc: " + ", ".join(over))

    print(json.dumps({"report": {"workload": args.workload, "seed": args.seed,
                                 "build_info": result["build_info"],
                                 "details": result["details"]}}))
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    if done.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
