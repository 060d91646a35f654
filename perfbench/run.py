#!/usr/bin/env python3
"""Build and run the repository benchmark.

From the repository root:

    python3 perfbench/run.py --workload sim-learn --seed 1 --seconds 20 --trace 0

The benchmark is a Go module in this directory that imports the
repository's packages. This script builds it into the build directory
($CARGO_TARGET_DIR, default .bench_build) and runs it with the given
arguments from the repository root. Every Go cache lives in the build
directory, so the benchmark reads and writes only inside the checkout.
The exit code is the benchmark's: non-zero when the build fails, when the
workload cannot run, or when any output fails verification.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 178


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build: {err}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    try:
        ran = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
