#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/ at the repository root; later calls
rebuild incrementally. Build output goes to standard error. BENCHMARK.json
at the repository root is the single source of metric names and units:
the binary reports names and values, and this script checks that they are
exactly BENCHMARK.json's end-to-end (--trace 0) or per-layer (--trace 1)
metrics, prints them with their units, and prints as the last line of
standard output the JSON result. A traced run also writes its Chrome trace
to .bench_build/trace-<workload>-<seed>.json.

Exits non-zero, printing no result, when the build or the run fails or the
metric names differ from BENCHMARK.json.
`--workload all` runs every workload in turn and exits non-zero when any
of them fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("paper-batch", "swf-stream", "burst-churn")
# A run ends well inside three minutes; anything longer is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD, "perfbench")


def load_metric_units(trace):
    """Name -> unit of the metrics a run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    metrics = spec["per_layer" if trace == "1" else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in metrics}


def run_workload(command, units):
    """Runs the binary; returns the result with units, or None on failure."""
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=RUN_TIMEOUT_S)
    lines = completed.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if completed.returncode != 0 or not lines:
        print(f"perfbench: exit code {completed.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if set(metrics) != set(units) or len(metrics) != len(units):
        print("perfbench: metric names differ from BENCHMARK.json: missing "
              f"{sorted(set(units) - set(metrics))}, unlisted "
              f"{sorted(set(metrics) - set(units))}", file=sys.stderr)
        return None
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]['value']:18.6f} {unit:12s} "
              f"n={metrics[name]['samples']}")
    result["metrics"] = {name: {"value": metrics[name]["value"], "unit": unit}
                         for name, unit in units.items()}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        units = load_metric_units(args.trace)
        binary = build()
    except (OSError, ValueError, KeyError,
            subprocess.SubprocessError) as error:
        print(f"perfbench: set-up failed: {error}", file=sys.stderr)
        return 1

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    results = []
    for workload in workloads:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", repr(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            command += ["--trace-file", os.path.join(
                BUILD, f"trace-{workload}-{args.seed}.json")]
        try:
            result = run_workload(command, units)
        except (OSError, ValueError, KeyError, TypeError,
                subprocess.SubprocessError) as error:
            print(f"perfbench: {workload} failed: {error}", file=sys.stderr)
            result = None
        if result is None:
            status = 1
        else:
            results.append(result)
    # The last line of standard output is the (last) workload's result.
    if status == 0:
        for result in results:
            print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
