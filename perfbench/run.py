#!/usr/bin/env python3
"""Build the perfbench program and run one workload.

    python3 perfbench/run.py --workload <paper_merge|ladder_swap|online_service>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The perfbench program and the dagpm library are built
from source with CMake into .bench_build/ (or $CARGO_TARGET_DIR when set);
later runs only rebuild what changed. The build log goes to stderr; the
program's output, whose last line is the result JSON, goes to stdout.

Every workload runs at one OpenMP thread (see perfbench/README.md).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("paper_merge", "ladder_swap", "online_service")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    env = dict(os.environ)
    # The library reads these at run time; a benchmark run uses its defaults.
    for name in ("DAGPM_FULL_REEVAL", "DAGPM_TRACE", "DAGPM_STATS"):
        env.pop(name, None)
    env["OMP_NUM_THREADS"] = "1"
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        return subprocess.run(command, env=env, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
