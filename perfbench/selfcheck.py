#!/usr/bin/env python3
"""Self-checks of the end-to-end benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

1. The metric and workload names the driver defines (perfbench
   --list-metrics) are exactly those of BENCHMARK.json, with the same
   units and directions.
2. Two untraced runs with one seed give identical model_* values,
   reduction ratio and program counters (the result records'
   "deterministic" section).
3. A traced run gives the same "deterministic" section as the untraced
   runs: instrumentation never charges modelled time. Its per-layer
   record reports the host cost of tracing as untraced vs traced
   host_MBps, printed here.

Run from the root of a checkout; exits 1 if any check fails.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)

OUT = os.path.join(".bench_out", "selfcheck")


def driver(binary, workload, seed, seconds, trace, tag):
    out_dir = os.path.join(OUT, tag)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--out-dir", out_dir,
           "--work-dir", ".bench_run"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        print(proc.stdout)
        raise SystemExit("selfcheck: %s run %s exited %d" %
                         (workload, tag, proc.returncode))
    path = os.path.join(out_dir, "%s-s%d-t%d.json" % (workload, seed, trace))
    with open(path) as handle:
        return json.load(handle)


def check_names(binary):
    listed = json.loads(subprocess.run([binary, "--list-metrics"],
                                       stdout=subprocess.PIPE, text=True,
                                       check=True).stdout)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    ok = [w["name"] for w in spec["workloads"]] == listed["workloads"]
    for key in ("end_to_end", "per_layer"):
        mine = [(m["name"], m["unit"], m["better"]) for m in listed[key]]
        theirs = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        ok &= mine == theirs
    print("names: %s" % ("BENCHMARK.json matches the driver" if ok else
                         "BENCHMARK.json and the driver DIFFER"))
    return ok, listed["workloads"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    os.chdir(run.ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = run.build(os.path.abspath(build_dir))

    ok, workloads = check_names(binary)
    for workload in workloads:
        first = driver(binary, workload, args.seed, args.seconds, 0, "a")
        second = driver(binary, workload, args.seed, args.seconds, 0, "b")
        traced = driver(binary, workload, args.seed, args.seconds, 1, "t")
        repeat = first["deterministic"] == second["deterministic"]
        same = first["deterministic"] == traced["deterministic"]
        layer = traced["per_layer"]
        print("%-10s  repeat %s  traced==untraced %s  host_MBps untraced "
              "%.2f traced %.2f" %
              (workload, "ok" if repeat else "DIFFERS",
               "ok" if same else "DIFFERS",
               layer["trace.host_MBps_untraced"],
               layer["trace.host_MBps_traced"]))
        ok &= repeat and same
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
