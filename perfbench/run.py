#!/usr/bin/env python3
"""Builds and runs the HEP end-to-end benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload web-budget --seed 1 --seconds 30 --trace 0

The benchmark binary is built from source with cargo (into
$CARGO_TARGET_DIR, default .bench_build). Inputs and the h2h spill files go
to .bench_work/. Every HEP_* variable is removed from the benchmark's
environment so the library runs its defaults; the workload pins its own
thread count, IO mode and memory budget. The last line of standard output is
the result object; the exit code is non-zero whenever no result was produced.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("social-stream", "web-budget")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    env = {k: v for k, v in os.environ.items() if not k.startswith("HEP_")}
    env.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    work_dir = os.path.join(root, ".bench_work")
    os.makedirs(work_dir, exist_ok=True)
    # The driver's h2h spill goes to the temporary directory.
    env["TMPDIR"] = work_dir

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(root, env["CARGO_TARGET_DIR"], "release", "hep-perfbench")

    command = [binary, "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--commit", git_commit()]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    try:
        bench = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return bench.returncode


def git_commit():
    """The checked-out commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=BENCH_DIR, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
