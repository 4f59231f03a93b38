#!/usr/bin/env python3
"""Builds and runs the GELC end-to-end benchmark.

    python3 perfbench/run.py --workload query|separate|train|stream \
        --seed N --seconds S --trace 0|1 [--inject-fault OP]

Run from the repository root. The first run configures and builds
gelc_perfbench (perfbench/CMakeLists.txt, which compiles ../src) into
the directory named by CARGO_TARGET_DIR, default `.bench_build`; later
runs only rebuild what changed. Build output goes to stderr. The program's
stdout is passed through: a `report {...}` line with context, samples,
digest and every metric, then the result object as the last line.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git_sha():
    """The source revision, with -dirty for local edits; 'unknown' outside git."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, text=True, capture_output=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return sha + ("-dirty" if dirty else "")


def build(build_dir):
    """Configures (once) and builds gelc_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("GELC sources not found under " + os.path.join(ROOT, "src"))
    if not shutil.which("cmake"):
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "gelc_perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "gelc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=["query", "separate", "train", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--inject-fault", type=int, default=None,
                        help="corrupt this op's answer (self-test)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha()]
    if args.trace == "1":
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed))]
    if args.inject_fault is not None:
        cmd += ["--inject-fault", str(args.inject_fault)]
    # GELC reads its pool size, SIMD tier and observability planes from
    # GELC_* variables; run every measurement with the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GELC_")}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
