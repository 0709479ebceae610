#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ingest, restore, oltp-mixed, tenants, or all (every workload from
one process). The script builds the benchmark driver (perfbench/CMakeLists.txt,
which compiles the program's libraries from src/) into $CARGO_TARGET_DIR,
default .bench_build, then runs it. Result records and spans go to .bench_out,
a run's scratch files to .bench_run. Everything the driver prints is passed
through; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit status is the driver's:
0 when every output was correct, 1 on a failed check; 2 when the benchmark
cannot be built or is called wrongly, in which case no result is printed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# One workload's run must end within three minutes; the driver caps its
# own passes well inside this.
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found; run from the root of a "
             "full checkout")
    try:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", build_dir, "--target",
                        "perfbench", "-j", BUILD_JOBS],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as err:
        fail("build failed: %s" % err)
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def src_digest():
    """SHA-256 over the program and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "results")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode != 0:
            return "none"
        rev = out.stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--", "src",
                                "perfbench"], cwd=ROOT, capture_output=True,
                               text=True, timeout=10)
        return rev + ("-dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(build_dir))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", ".bench_out", "--work-dir", ".bench_run",
           "--git-rev", git_rev(), "--src-digest", src_digest()]
    timeout = RUN_TIMEOUT_S * (4 if args.workload == "all" else 1)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % timeout)
    if proc.returncode == 2:
        fail("bad arguments for the benchmark driver")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        valid = sorted(result) == ["attempted", "correct", "failed",
                                   "metrics"]
    except ValueError:
        valid = False
    if not valid:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("perfbench: the driver printed no result line", file=sys.stderr)
        sys.exit(1)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
