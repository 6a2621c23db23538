#!/usr/bin/env python3
"""Smoke test of the benchmark harness.

    python3 perfbench/smoke_test.py [--seconds S]

Runs every workload in BENCHMARK.json briefly, untraced and traced,
and asserts that each run exits 0, passes its output checks, prints
exactly the metrics BENCHMARK.json names for that mode with their
units, and stamps its result row. Run from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STAMPS = ("git_rev", "nproc", "threads", "simd", "error_rate", "metrics")


def check_run(spec, workload, trace, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    where = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    result, row = json.loads(lines[-1]), json.loads(lines[-2])["row"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in wanted], f"{where}: metric names {list(got)}"
    for m in wanted:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], f"{where}: {m['name']} unit {value['unit']}"
        assert isinstance(value["value"], (int, float)), f"{where}: {m['name']}"
        if not trace:
            assert value["value"] > 0, f"{where}: {m['name']} is {value['value']}"
    for key in STAMPS:
        assert key in row, f"{where}: row lacks {key}"
    for name, metric in row["metrics"].items():
        assert metric["samples"] >= 1, f"{where}: {name} has no samples"
    print(f"ok   {where}: {len(got)} metrics, {result['attempted']} operations")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            try:
                check_run(spec, workload["name"], trace, args.seconds)
            except AssertionError as e:
                failures += 1
                print(f"FAIL {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
