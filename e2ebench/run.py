#!/usr/bin/env python3
"""Builds and runs the ttra end-to-end benchmark.

Run from the root of a checkout:

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 e2ebench/run.py --all [--seed <n>] [--seconds <s>]   # every workload, both runs
  python3 e2ebench/run.py --selftest                           # the benchmark's own tests

The library is compiled from ../src into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench) as a Release build. Build output and the report go to
stderr; the last line of stdout is the JSON result of the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["ingest", "timetravel", "mixed"]
RUN_TIMEOUT_S = 170


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(command))


def run_one(binary, workload, seed, seconds, trace):
    root = build_root()
    command = [
        binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--work-dir", os.path.join(root, "e2ebench-work-%d" % os.getpid()),
    ]
    if trace:
        trace_dir = os.path.join(root, "e2ebench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-file", os.path.join(trace_dir, "%s-seed%s.tsv" % (workload, seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("e2ebench: %s failed (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("e2ebench: malformed result line")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--selftest", action="store_true", help="run the benchmark's self-tests")
    args = parser.parse_args()
    if not (args.workload or args.all or args.selftest):
        parser.error("one of --workload, --all or --selftest is required")

    build_dir = os.path.join(build_root(), "e2ebench")
    build(build_dir)
    if args.selftest:
        work = os.path.join(build_root(), "e2ebench-selftest-%d" % os.getpid())
        sys.exit(subprocess.run([os.path.join(build_dir, "e2ebench_selftest"), work]).returncode)

    binary = os.path.join(build_dir, "e2ebench")
    if args.all:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                result = run_one(binary, workload, args.seed, args.seconds, trace)
                ok = ok and result["correct"] and result["failed"] == 0
                print(json.dumps({"workload": workload, "trace": trace, **result}), flush=True)
        sys.exit(0 if ok else 1)
    result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
