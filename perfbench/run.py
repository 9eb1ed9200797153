#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_scalar --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe from source with dune (into
$CARGO_TARGET_DIR, default .bench_build) and runs it with the given
arguments; the last line of its stdout is the result JSON.  The second runs
the benchmark's own tests (perfbench/test_perfbench.py).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Build the benchmark executable; return its path or None on failure.
    The shared dune cache is off, so the build writes only under the
    working directory."""
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir(),
           "--profile", "release", "perfbench/perfbench.exe"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                           timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if r.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(build_dir(), "default", "perfbench", "perfbench.exe")


def main(argv):
    if not os.path.isfile("dune-project"):
        print("perfbench: run from the repository root (no dune-project here)", file=sys.stderr)
        return 2
    exe = build()
    if exe is None:
        return 2
    if argv[:1] == ["--self-test"]:
        sys.dont_write_bytecode = True
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import test_perfbench
        return test_perfbench.main(exe)
    try:
        r = subprocess.run([exe] + argv, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
