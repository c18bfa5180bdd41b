#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <clean-int|probe-churn|serve-fleet>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
engine and the benchmark with CMake under .bench_build/ (or under
$CARGO_TARGET_DIR when it is set). Every metric the run measured is
printed one per line; the last line is the result object, holding the
metrics BENCHMARK.json declares: its end_to_end list without --trace,
its per_layer list with --trace 1. A per-layer metric of a layer the
workload does not exercise reads 0.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return build_dir


def no_aslr_prefix():
    """Address-space randomisation moves code and data on every run,
    and on the reference host that alone moved job times by several
    percent between runs. Run without it where the host allows."""
    cmd = ["setarch", platform.machine(), "-R"]
    try:
        ok = subprocess.run(cmd + ["true"], stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL).returncode == 0
    except OSError:
        ok = False
    return cmd if ok else []


def declared_metrics():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        return bench["end_to_end"], bench["per_layer"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    end_to_end, per_layer = declared_metrics()
    build_dir = build()
    if args.selftest:
        cmd = [os.path.join(build_dir, "wizbench_selftest"), HERE]
        sys.exit(subprocess.run(cmd, timeout=600).returncode)
    if not args.workload:
        fail("--workload is required")

    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = no_aslr_prefix() + [os.path.join(build_dir, "wizbench"), "run",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", HERE, "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"wizbench exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("wizbench printed no result")

    measured = result["metrics"]
    metrics = {}
    for m in per_layer if args.trace else end_to_end:
        name = m["name"]
        if name in measured:
            value = measured[name]["value"]
            if measured[name]["unit"] != m["unit"]:
                fail(f"{name} measured in {measured[name]['unit']}, "
                     f"declared in {m['unit']}")
        elif args.trace:
            value = 0
        else:
            fail(f"the run did not measure {name}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
