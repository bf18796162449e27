#!/usr/bin/env python3
"""Build and run the QUBIKOS benchmark.

    python3 perfbench/run.py --workload route --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds the `perfbench` package (its own cargo
workspace, depending on the repository's crates by path) in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then runs it with the same
flags. Its standard output is passed through; the last line is the result
JSON. Scratch corpora and span files go under `.bench_build/perfbench`.

Exits non-zero without a result when the build fails, the arguments are
invalid, or QUBIKOS_ORACLE_ROWS / QUBIKOS_CHAOS_SEEDS is set.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("route", "exact", "corpus-cold")
FORBIDDEN_ENV = ("QUBIKOS_ORACLE_ROWS", "QUBIKOS_CHAOS_SEEDS")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")
    for var in FORBIDDEN_ENV:
        if var in os.environ:
            sys.exit(f"run.py: refusing to run with {var} set: it changes the program under test")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        sys.exit(f"run.py: build failed: {error}")
    if built.returncode != 0:
        sys.exit(f"run.py: build failed with exit code {built.returncode}")

    out_dir = os.path.join(".bench_build", "perfbench")
    command = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", out_dir,
    ]
    process = subprocess.Popen(command, env=env)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        code = 1
        print("run.py: benchmark timed out", file=sys.stderr)
    finally:
        for entry in os.listdir(out_dir) if os.path.isdir(out_dir) else []:
            if entry.startswith("work-"):
                shutil.rmtree(os.path.join(out_dir, entry), ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
