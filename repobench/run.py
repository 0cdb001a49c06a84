#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

Builds the harness (repobench/harness.cpp plus the library under src/) from
source, runs the requested workload and prints the harness output. The last
line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of the repository:

    python3 repobench/run.py --workload cold-files --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/repobench (default .bench_build/repobench).
repobench/design.json records why each workload exists and the constants
the harness freezes (service arrival rate, lint canary digest).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cold-files", "warm-files", "service-skewed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, **kw):
    try:
        return subprocess.run(cmd, timeout=timeout, **kw)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout}s: {' '.join(map(str, cmd))}")


def build(build_dir):
    """Configures and builds the harness; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = run(["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, stdout=sys.stderr)
    if r.returncode != 0:
        fail("cmake configure failed")
    r = run(["cmake", "--build", str(build_dir), "-j", jobs],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    return build_dir / "repobench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(root / "repobench")

    snapshots = root / "snapshots" / str(args.seed)
    if args.workload == "warm-files":
        r = run([str(exe), "train", "--seed", str(args.seed),
                 "--snapshots", str(snapshots)], RUN_TIMEOUT_S)
        if r.returncode != 0:
            fail("snapshot training failed")

    trace_out = root / "traces" / f"{args.workload}-{args.seed}.jsonl"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), "run", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--snapshots", str(snapshots),
           "--trace-out", str(trace_out)]
    r = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    shutil.rmtree(snapshots, ignore_errors=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout)
        fail(f"harness exited with {r.returncode}")
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(r.stdout)
        fail("harness printed no result line")
    for line in lines[:-1]:
        print(line)
    if args.trace:
        print(f"trace: spans and counts written to {trace_out}")
    print(lines[-1])


if __name__ == "__main__":
    main()
