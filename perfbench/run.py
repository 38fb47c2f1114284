#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`). Cargo's own
output goes to standard error; standard output ends with the benchmark's
JSON result line. Exits non-zero, printing no result, when the build or
the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARY = "artisan-perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", BINARY)
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")
    return binary


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    run = subprocess.run([binary] + sys.argv[1:], env=env, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("benchmark printed no result line")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("malformed result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
