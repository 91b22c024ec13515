#!/usr/bin/env python3
"""tyder end-to-end benchmark.

    python3 perfbench/run.py --workload <churn-soak|serve-read|commit-storm>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds tyderd and the load generator from the
checkout's sources into .bench_build/ (the first run compiles; later runs
only check that the build is current), then runs one workload against a
real tyderd on a loopback port and prints the result JSON as the last line
of stdout. Exits non-zero if the build, the run or any output check fails.
See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("churn-soak", "serve-read", "commit-storm")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no tyder sources next to perfbench/ (src/ missing)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--parallel", "4",
                    "--target", "tyderd", "tyder_perfbench", "perfbench_nosync"],
                   check=True, stdout=sys.stderr)


def stop_group(proc):
    """SIGTERM, then SIGKILL, the process group led by `proc`; waits until
    no member is left."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        if proc.poll() is None:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        for _ in range(100):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    work = os.path.join(ROOT, ".bench_build", "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(BUILD, "tyder_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tyderd", os.path.join(BUILD, "tyderd"), "--work", work]
    # fsync at the cost of a RAM-backed directory, for the probe and the
    # tyderd processes it starts (see perfbench/nosync.cc).
    env = dict(os.environ, LD_PRELOAD=os.path.join(BUILD, "libperfbench_nosync.so"))
    # Its own process group, so the tyderd processes it starts are stopped
    # even if it dies without stopping them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    finally:
        stop_group(proc)
    if out is None:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(out)
    sys.stdout.flush()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s failed (exit %d)" % (args.workload, proc.returncode))
    json.loads(lines[-1])  # the result line must parse


if __name__ == "__main__":
    main()
