#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

    python3 perfbench/run.py --workload fig11|gc|durable --seed N \
        --seconds S --trace 0|1 [--scale X] [--damage-lskc]

Run from the root of a checkout. The binary and the logseek library
are configured and built under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) in RelWithDebInfo; build output goes to
stderr. The binary's stdout is passed through unchanged, so its last
line is the JSON result, and its exit code is returned. A checkout
without the library sources fails the build and exits 1 without a
result.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_TYPE = "RelWithDebInfo"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    """Configure (once) and build; False when either step fails."""
    steps = []
    generated = [os.path.join(out_dir, name)
                 for name in ("Makefile", "build.ninja")]
    if not any(os.path.exists(path) for path in generated):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig11", "gc", "durable"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--scale", type=float)
    parser.add_argument("--damage-lskc", action="store_true")
    args = parser.parse_args()

    out_dir = build_dir()
    if not build(out_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_dir, "work-%d" % os.getpid())
    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir,
               "--spans", os.path.join(out_dir,
                                       "spans-%s.json" % args.workload)]
    if args.scale is not None:
        command += ["--scale", repr(args.scale)]
    if args.damage_lskc:
        command.append("--damage-lskc")
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT).returncode
    finally:
        if os.path.isdir(work_dir):
            for name in os.listdir(work_dir):
                os.remove(os.path.join(work_dir, name))
            os.rmdir(work_dir)


if __name__ == "__main__":
    sys.exit(main())
