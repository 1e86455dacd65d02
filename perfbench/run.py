#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig6_middle --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --self-test

Workloads: fig6_middle and serve_under_train (see BENCHMARK.json).

Run from the repository root. The first call configures and builds
perfbench (CMake, Release) under .bench_build/perfbench from the checkout's
own sources; later calls only rebuild what changed. The last line of
stdout is the benchmark's JSON result; build output and the human-readable
summary go to stderr. Per-run results files (and, for traced runs, a
Chrome trace) are written under .bench_build/results. Exits non-zero,
without a result line, when the sources are missing or the build fails,
and non-zero after the result line when a correctness check fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
# Sources whose digest identifies what was measured.
HASHED = ["CMakeLists.txt", "src", "bench/bench_common.cpp", "bench/bench_common.hpp",
          "bench/CMakeLists.txt", "perfbench"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Runs a build step with its output sent to stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_quiet(cmd) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_quiet(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]) != 0:
        fail("build failed")


def source_hash():
    digest = hashlib.sha256()
    for entry in HASHED:
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_info():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown", "unknown"
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--", "src",
                                 "bench", "perfbench", "CMakeLists.txt"],
                                capture_output=True, text=True, timeout=10).stdout
        return commit, "1" if status.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test"], cwd=ROOT).returncode)

    os.makedirs(RESULTS, exist_ok=True)
    commit, dirty = git_info()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--out-dir", RESULTS,
           "--git-commit", commit, "--git-dirty", dirty, "--source-hash", source_hash()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
