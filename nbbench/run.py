#!/usr/bin/env python3
"""Build and run the nanobus benchmark.

    python3 nbbench/run.py --workload spec_sweep --seed 1 --seconds 20

Run from the root of a checkout. The first run configures and builds
nbbench/ (the library sources of this checkout plus the driver) into
.bench_build/; later runs rebuild only what changed. Build output goes
to stderr, so the last line of stdout is the driver's JSON result.

Workloads: spec_sweep, l2_online, fabric_hotspot, thermal_wide, or
`all` (every workload in one process). --trace 1 reports the
per-layer metrics instead of the end-to-end ones and writes the kept
spans to .bench_out/. --emit-reference FILE appends this run's
checked outputs in the reference.tsv format.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.tsv")
# Stop a benchmark run that has not ended by this time, so a hung run
# fails instead of blocking whoever started it.
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the nbbench target; return the
    binary's path, or None when the build fails."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # One build at a time per checkout.
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "nbbench"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr).returncode != 0:
                log("build step failed: " + " ".join(step))
                return None
    # Flush the build's output now, so its write-back does not compete
    # with the measured run for the disk.
    os.sync()
    return os.path.join(BUILD, "nbbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--emit-reference", default="")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "sim",
                                       "experiment.hh")):
        log("no nanobus sources next to nbbench/; run from a full "
            "checkout")
        return 2
    binary = build()
    if binary is None:
        return 1

    work_dir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if os.path.isfile(REFERENCE):
        cmd += ["--reference", REFERENCE]
    if args.emit_reference:
        cmd += ["--emit-reference", os.path.abspath(args.emit_reference)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, "spans-%s-%d.csv" % (args.workload, args.seed))]
    try:
        proc = subprocess.Popen(cmd)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("benchmark exceeded %d s; stopping it" % RUN_TIMEOUT_S)
            proc.kill()
            proc.wait()
            return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
