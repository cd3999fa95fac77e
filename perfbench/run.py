#!/usr/bin/env python3
"""End-to-end audit + serving benchmark for divexp.

    python3 perfbench/run.py --workload german-audit --seed 1 \
        --seconds 10 --trace 0

Builds `divexp` and the harness from this checkout's sources (the
repository's own CMake build, with the harness added through
perfbench/hook.cmake) into .bench_build/, then runs the harness, whose
last stdout line is the result JSON. Build output goes to stderr.
Workloads, metrics and how to read them: perfbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(".bench_build", "perfbench")
BUILD_DIR = os.path.join(BENCH_DIR, "cmake")


def build():
    hook = os.path.join(ROOT, "perfbench", "hook.cmake")
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(
            ["cmake", "-S", ".", "-B", BUILD_DIR, "-G", "Unix Makefiles",
             "-DCMAKE_PROJECT_INCLUDE=" + hook],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--parallel", jobs,
         "--target", "divexp_tool", "perfbench_harness"],
        stdout=sys.stderr, check=True)


def main():
    os.chdir(ROOT)
    if not os.path.exists("CMakeLists.txt"):
        sys.exit("perfbench: no CMakeLists.txt at %s; run from a full "
                 "checkout of the repository" % ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    harness = os.path.join(BUILD_DIR, "perfbench_harness", "perfbench_harness")
    divexp = os.path.join(BUILD_DIR, "tools", "divexp")
    args = [harness] + sys.argv[1:] + [
        "--divexp", divexp, "--work-dir", os.path.join(BENCH_DIR, "work")]
    os.execv(harness, args)


if __name__ == "__main__":
    main()
