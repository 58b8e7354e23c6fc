#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 campaignbench/run.py --workload hunt|exec|assure --seed N \
        --seconds S --trace 0|1 [--cases N]

Run from the root of a checkout. Builds the BVF libraries and the
`campaignbench` program from source with CMake (into $CARGO_TARGET_DIR, default
.bench_build), then runs it for one workload in a child process and
relays its output. The last stdout line is the JSON result object; on any
failure nothing is printed on stdout's last line and the exit code is not 0.

--cases overrides the workload's case count (the self-test uses tiny sizes).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hunt", "exec", "assure")
RUN_TIMEOUT_S = 170  # a run must end within 180 s once the build is done


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "campaignbench")


def build(out_dir, timeout):
    """Configures (once) and builds the benchmark program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("BVF sources (src/) not found next to " + HERE)
        return None
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    start = time.monotonic()
    for cmd in steps:
        left = timeout - (time.monotonic() - start)
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  timeout=max(1, left))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            log("build failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out_dir, "campaignbench")
    return binary if os.access(binary, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cases", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build(build_dir(), timeout=850)
    if binary is None:
        return 2
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out_dir]
    if args.cases:
        cmd += ["--cases", str(args.cases)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("campaignbench timed out")
        return 3
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        log("campaignbench failed with exit code %d" % done.returncode)
        return 4
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        log("campaignbench printed no result line")
        return 5
    print("\n".join(lines[:-1]))
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
