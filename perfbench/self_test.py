#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/self_test.py

Runs every workload of BENCHMARK.json once untraced and once traced on a
shrunken fixture (--tiny, 1 s each) through the same command the benchmark
uses, and checks that each run passes its correctness checks and prints
exactly the metric names and units BENCHMARK.json declares. Exits non-zero
on the first mismatch.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            declared = spec["per_layer" if trace else "end_to_end"]
            cmd = spec["command"] + [
                "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, timeout=900)
            problem = None
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problem = f"exit status {proc.returncode}"
            else:
                result = json.loads(lines[-1])
                if sorted(result) != ["attempted", "correct", "failed",
                                      "metrics"]:
                    problem = f"result keys {sorted(result)}"
                elif not result["correct"] or result["attempted"] < 1:
                    problem = "correctness check failed"
                elif {k: v["unit"] for k, v in result["metrics"].items()} != {
                        m["name"]: m["unit"] for m in declared}:
                    problem = "metric names or units differ from BENCHMARK.json"
            status = "ok" if problem is None else f"FAIL ({problem})"
            print(f"{workload:16s} trace={trace}: {status}", flush=True)
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
