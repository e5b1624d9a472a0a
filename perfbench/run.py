#!/usr/bin/env python3
"""Builds the cfva benchmark (cfva_perfbench) from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--seed N]   # every workload
    python3 perfbench/run.py --selftest

cfva_perfbench's last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  --all prints every
end-to-end metric of every workload by name, with its unit.  The build
lives in .bench_build/ at the repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["paper", "broad", "ports", "long"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    """Configures (once) and builds @target; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the cfva sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE) not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", target,
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, target)


def run_workload(exe, workload, seed, seconds, trace, capture):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, workload + ".tsv")]
    if not capture:
        return subprocess.run(cmd).returncode, None
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0x5EEDF00D)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if sum([args.workload is not None, args.all, args.selftest]) != 1:
        fail("give exactly one of --workload, --all, --selftest")

    try:
        if args.selftest:
            return subprocess.run([build("perfbench_selftest")]).returncode
        exe = build("cfva_perfbench")
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    if args.workload:
        code, _ = run_workload(exe, args.workload, args.seed,
                               args.seconds, args.trace, capture=False)
        return code

    worst = 0
    for w in WORKLOADS:
        code, result = run_workload(exe, w, args.seed, args.seconds,
                                    args.trace, capture=True)
        worst = worst or code
        if result is None:
            print("%-6s no result (exit %d)" % (w, code))
            continue
        print("%-6s correct=%s attempted=%d failed=%d"
              % (w, result["correct"], result["attempted"],
                 result["failed"]))
        for name, m in result["metrics"].items():
            print("  %-32s %18.6f %s" % (name, m["value"], m["unit"]))
    return worst


if __name__ == "__main__":
    sys.exit(main())
