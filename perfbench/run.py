#!/usr/bin/env python3
"""Build and run the chunknet benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles the library from src/) into
.bench_build/perfbench under the repository root, then runs one
workload. The report's last stdout line is the JSON result. With
--trace 1 the spans are written to .bench_build/perfbench/traces/.
Extra arguments (for example --bulk-mib 96) go to the binary unchanged.
See perfbench/NOTES.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no chunknet sources at {os.path.join(ROOT, 'src')}; cannot build")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args, extra = ap.parse_known_args()

    if args.self_test:
        if not build("perfbench_tests"):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not build("perfbench"):
        return 2

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, f"{args.workload}_seed{args.seed}.json")]
    cmd += extra
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        return 3


if __name__ == "__main__":
    sys.exit(main())
