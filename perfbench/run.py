#!/usr/bin/env python3
"""Build and run the RStore benchmark; see perfbench/README.md.

Run from the root of a checkout:

  python3 perfbench/run.py --workload <fanin-read|kv-update|stream-rw> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --test      # the benchmark's own tests

The benchmark package (perfbench/CMakeLists.txt, which compiles ../src) is
built into .bench_build/perfbench under the checkout root. The last line of
standard output is the JSON result; build output goes to standard error.
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
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One run of the binary must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"RStore sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        die("build failed")


def pick_cpu():
    """The CPU the simulation is pinned to, and why."""
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    reason = ("SimThreads run one at a time, so one CPU carries the whole "
              "simulation; pinning removes thread migration and cross-CPU "
              "wake-ups, which made unpinned round times vary by up to 20%. "
              "The highest allowed CPU is taken because CPU 0 serves most "
              "interrupts")
    return cpu, allowed, reason


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--test", action="store_true")
    args = ap.parse_args()

    if args.test:
        build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(BUILD, "perfbench_test")])
                 .returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        die("--workload, --seed, --seconds and --trace are required")

    build(["perfbench"])
    cpu, allowed, reason = pick_cpu()
    print("# host: " + json.dumps({"nproc": os.cpu_count(),
                                   "allowed_cpus": allowed,
                                   "pinned_cpu": cpu,
                                   "pin_reason": reason}), flush=True)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stdout.write(proc.stdout)
        die(f"benchmark exited {proc.returncode} without a result line")
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
