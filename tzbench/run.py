#!/usr/bin/env python3
"""Build and run the repository benchmark (BENCHMARK.json).

Usage, from the repository root:

    python3 tzbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds tzbench/ in Release mode under $CARGO_TARGET_DIR/tzbench
(default .bench_build/tzbench; the library comes from the repository root),
then runs the tzbench binary with the same arguments. Build output goes to
stderr; the binary's last stdout line is the result JSON and its exit code is
returned. Exits nonzero without a result when the library sources are absent.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("tzbench: no trojanzero sources (CMakeLists.txt, src/) "
                 "next to tzbench/; run from a full checkout")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                              or ".bench_build")
    build = os.path.join(target_dir, "tzbench")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "tzbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("tzbench: build failed: " + " ".join(cmd))
    binary = os.path.join(build, "tzbench")
    proc = subprocess.run([binary, *sys.argv[1:], "--work-dir", build])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
