#!/usr/bin/env python3
"""Builds and runs the TopPriv benchmark (see perfbench/README.md).

    python3 perfbench/run.py --open-rate R --workload W --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls rebuild incrementally. The binary's metric
lines are passed through, then one JSON line with exactly the keys
correct, attempted, failed and metrics: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1.
Exit status: 0 when every correctness check passed, 1 when one failed,
2 or more (and no result line) when the benchmark could not run.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "toppriv_perfbench",
         "-j", "4"],
        check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "toppriv_perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--open-rate", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    work_dir = os.path.join(ROOT, ".bench_run",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--open-rate", repr(args.open_rate), "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        os.makedirs(work_dir, exist_ok=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark exited with {proc.returncode}")
        return 3
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])
    print("context: " + json.dumps(raw["context"], sort_keys=True))

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not math.isfinite(
                got["value"]):
            log(f"metric {m['name']} missing, non-finite or not in "
                f"{m['unit']}: {got}")
            return 3
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": bool(raw["correct"]) and raw["attempted"] >= 1,
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
