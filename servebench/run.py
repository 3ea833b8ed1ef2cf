#!/usr/bin/env python3
"""Build the serve benchmark from source and run it.

    python3 servebench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/servebench
(default .bench_build/servebench); the traced run's Chrome traces go to
.bench_build/servebench/traces. Every argument is passed to the benchmark
binary, whose exit code this script returns; build output goes to stderr so
the last line of stdout stays the benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "servebench")


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "service.hpp")):
        sys.exit("servebench: library sources not found under %s/src" % ROOT)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "serve_bench"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit("servebench: build step failed: %s" % " ".join(step))
    return os.path.join(out, "serve_bench")


def main(argv):
    binary = build()
    args = list(argv)
    if "--trace" in args and "--out-dir" not in args:
        args += ["--out-dir", os.path.join(build_dir(), "traces")]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
