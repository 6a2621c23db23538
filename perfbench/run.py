#!/usr/bin/env python3
"""Build and run the IR-Fusion benchmark.

    python3 perfbench/run.py --workload cold_150k|serve_predict|eco_optimize \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the harness (`perfbench/`, a
package of its own) and the `irf-serve` binary in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload, and
passes its output through: the last stdout line is the JSON result.
Set `PERFBENCH_SIMD=1` to build both with the `simd` feature.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Longest a run may take once built; the harness itself stops
# measuring after --seconds.
RUN_TIMEOUT_S = 170


def git_revision():
    """HEAD's commit, read from .git inside the repository only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build(target_dir, features):
    """Release builds of the harness and the server; False on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    commands = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")] + features,
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "irf-serve"] + features,
    ]
    for command in commands:
        try:
            done = subprocess.run(command, env=env, stdout=sys.stderr, cwd=ROOT)
        except OSError as e:
            print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    features = ["--features", "simd"] if os.environ.get("PERFBENCH_SIMD") == "1" else []
    if not build(target_dir, features):
        return 1

    work_dir = os.path.join(target_dir, "perfbench-work", f"{args.workload}-{os.getpid()}")
    command = [
        os.path.join(target_dir, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work_dir,
        "--serve-bin", os.path.join(target_dir, "release", "irf-serve"),
        "--git-rev", git_revision(),
    ]
    # Own process group, so a timeout also stops the server it started.
    child = subprocess.Popen(command, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
