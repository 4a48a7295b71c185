#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced through
perfbench/run.py and asserts that each run passes its checks and
emits exactly the end-to-end (untraced) or per-layer (traced)
metrics BENCHMARK.json names. Then replays `durable` with its first
LSKC file truncated and asserts the damage is reported as failed
cells (a raised cell_fail_ratio and a non-zero exit), not as a
crash or a silent skip. Exits 0 when every assertion holds.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCALE = "0.001"


def run(workload, trace, *extra):
    """Run one workload; returns (exit code, stdout lines, result)."""
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", "3", "--seconds", "0.5",
               "--trace", trace, "--scale", SCALE, *extra]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, lines, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(condition, what):
        print(("ok   " if condition else "FAIL ") + what)
        if not condition:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            code, _, result = run(workload, trace)
            name = "%s --trace %s" % (workload, trace)
            check(code == 0, name + ": exit code 0")
            if result is None:
                check(False, name + ": printed a result")
                continue
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, name + ": result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  name + ": every check passed")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  name + ": emits exactly the named metrics with units")

    code, lines, result = run("durable", "0", "--damage-lskc")
    check(code != 0, "damaged LSKC: non-zero exit")
    check(result is not None and not result["correct"]
          and result["failed"] > 0, "damaged LSKC: failed cells counted")
    ratios = [float(m.group(1)) for m in
              (re.match(r"cell_fail_ratio = (\S+)", line)
               for line in lines) if m]
    check(bool(ratios) and ratios[-1] > 0,
          "damaged LSKC: cell_fail_ratio raised")
    if result is not None:
        ok = result["metrics"].get("cell_ok_ratio", {}).get("value", 1)
        check(ok < 1, "damaged LSKC: cell_ok_ratio lowered")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
