#!/usr/bin/env python3
"""Builds the HAMLET benchmark from the sources next to it and runs it.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the working directory); the first run compiles, later runs only
check that the build is current. Build output goes to
stderr, so the last line on stdout is the benchmark's result object. Span
dumps of traced runs land in <build dir>/trace. Exits non-zero, without a
result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir, target):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target_root, "perfbench"))
    try:
        binary = build(build_dir,
                       "perfbench_selftest" if args.selftest else "hamlet_perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary]).returncode

    dump_dir = os.path.join(build_dir, "trace")
    os.makedirs(dump_dir, exist_ok=True)
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--dump-dir", dump_dir],
        stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with code {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    try:
        result = json.loads(lines[-1])
        ok = sorted(result) == ["attempted", "correct", "failed", "metrics"]
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(run.stdout)
        print("perfbench: the run printed no result object", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
