#!/usr/bin/env python3
"""Builds the lclpath benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lifted-decide --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory; traces and scratch stores go to <build>/perfbench-out.
The last line of standard output is the result JSON object.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("lifted-decide", "catalog-sweep", "simulate-large")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def scratch_env(build_dir):
    """Environment whose temporary files stay under the build directory."""
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        log("perfbench: run from the repository root (CMakeLists.txt and src/ not found)")
        return None
    binary = os.path.join(build_dir, "lclpath_perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [
            "cmake",
            "-S",
            os.path.join(root, "perfbench"),
            "-B",
            build_dir,
            "-DCMAKE_BUILD_TYPE=Release",
        ]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          env=scratch_env(build_dir)).returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compile_cmd = ["cmake", "--build", build_dir, "--target", "lclpath_perfbench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr, stderr=sys.stderr,
                      env=scratch_env(build_dir)).returncode != 0:
        return None
    return binary if os.path.isfile(binary) else None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)
    if binary is None:
        log("perfbench: build failed")
        return 2
    out_dir = os.path.join(root, target, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
    ]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True,
                              env=scratch_env(build_dir))
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log("perfbench: benchmark exited with code %d" % proc.returncode)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 5
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
