#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first run
configures and builds perfbench/ (the repository's libraries plus
bench_main) in .bench_build/ at the checkout root; later runs only
rebuild what changed. Build output goes to standard error; the
benchmark's report goes to standard output, ending with one JSON line.
Traced runs (--trace 1) also write their spans to
.bench_build/traces/<workload>-seed<N>.jsonl.

Exits 2 without a result when the checkout holds no sources to build.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("grid-short", "compile-run", "serve-short")
BUILD_JOBS = 2
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def build(root, build_dir):
    """Configure (once) and build bench_main; returns its path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [os.path.join(root, "perfbench")]:
            shutil.rmtree(build_dir)  # Configured for another tree.
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd, "configure")
    step(["cmake", "--build", build_dir, "--target", "bench_main",
          "-j", str(BUILD_JOBS)], "build")
    return os.path.join(build_dir, "bench_main")


def step(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(what + " failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for need in ("src/CMakeLists.txt", "examples/c"):
        if not os.path.exists(os.path.join(root, need)):
            fail("no %s in %s: run from a full checkout" % (need, root))
    if not shutil.which("cmake"):
        fail("cmake not found")

    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--examples", os.path.join(root, "examples", "c"),
           "--rev", git_rev(root)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("bench_main did not finish within %d s" % RUN_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
