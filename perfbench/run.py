#!/usr/bin/env python3
"""Build and run the whole-cycle Tagwatch benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_turntable --seed 2017 \
        --seconds 10 --trace 0

Builds the repository's libraries and the benchmark driver from source into
$CARGO_TARGET_DIR (default .bench_build) with CMake, then runs the driver.
The driver's last stdout line is the JSON result; build output goes to
stderr.  Exits nonzero, without a result, when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_turntable", "shelf_replay", "fleet_conveyor")
DEFAULT_SEED = 2017  # Held-out seed for checking claims: 4242 (METRICS.md).


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", "4",
                    "--target", "tagwatch_perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "tagwatch_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
