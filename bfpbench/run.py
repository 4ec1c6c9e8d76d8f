#!/usr/bin/env python3
"""Build and run the bfpsim end-to-end benchmark.

    python3 bfpbench/run.py --workload deit_forward|fleet_diurnal|spec_pipeline
                            [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first call configures and builds the
bfpsim libraries and the bfpbench program (Release) under .bench_build/;
later calls only bring that build up to date. The program's stdout is passed
through: its last line is the JSON result. A traced run (--trace 1) also
writes its spans as a Chrome trace to .bench_build/spans-<workload>.json.
Exits non-zero when the sources are missing, the build fails, or the run
fails an output check.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "bfpbench")
BINARY = os.path.join(BUILD, "bfpbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_logged(cmd, timeout):
    """Run a build step; on failure echo its output to stderr."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("bfpbench: timed out: %s\n" % " ".join(cmd))
        return False
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        sys.stderr.write("bfpbench: failed: %s\n" % " ".join(cmd))
        return False
    return True


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("bfpbench: bfpsim sources (src/) not found\n")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return run_logged(["cmake", "--build", BUILD, "--target", "bfpbench",
                       "-j", jobs], BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["deit_forward", "fleet_diurnal", "spec_pipeline"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in [1, 3600]")

    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans",
                os.path.join(BUILD_ROOT, "spans-%s.json" % args.workload)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("bfpbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
