#!/usr/bin/env python3
"""Builds and runs the umlsoc end-to-end benchmark.

    python3 perfbench/run.py --workload soak|verify|compile|timetravel \
        --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (the library from src/ plus the benchmark driver) in Release mode
under $CARGO_TARGET_DIR (default .bench_build); later runs only rebuild what
changed. Build output goes to stderr. The driver's report goes to stdout;
its last line is one JSON object with the keys correct, attempted, failed
and metrics. Checkpoint ladders are written under the build directory and
removed after the run; a traced run leaves its spans as Chrome trace-event
JSON in <build>/traces/<workload>.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("soak", "verify", "compile", "timetravel")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    stdout = sys.stderr
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=stdout, stderr=stdout).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", build_dir, "--target", "umlsoc_perfbench", "-j", "4"]
    if subprocess.run(compile_cmd, stdout=stdout, stderr=stdout).returncode != 0:
        return None
    binary = os.path.join(build_dir, "umlsoc_perfbench")
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no src/ directory next to perfbench/; nothing to build",
              file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    binary = build(os.path.join(build_root, "perfbench"))
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(build_root, "scratch")]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, args.workload + ".json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                                cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        print("perfbench: driver exited with %d" % result.returncode, file=sys.stderr)
        return 1
    try:
        report = json.loads(lines[-1])
    except ValueError:
        report = None
    if not isinstance(report, dict) or set(report) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.stdout.write(result.stdout)
        print("perfbench: driver printed no result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
