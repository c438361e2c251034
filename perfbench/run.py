#!/usr/bin/env python3
"""End-to-end benchmark of the deployed verified stack (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload checkout_hot --seed 1 --seconds 25 --trace 0

On first use it builds perfbench_e2e from source into $CARGO_TARGET_DIR (or
.bench_build) under perfbench/. It then runs one workload and passes the
report through; the last line of output is the JSON result. The exit code is
0 only when every result was verified.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("commit_durable", "checkout_hot", "browse_audit")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(bench_dir, build_dir):
    """Configures once, then (re)builds the benchmark binary."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", build_dir, "--target",
                       "perfbench_e2e", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"no trusted-cvs sources next to {bench_dir}")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "perfbench")
    exe = build(bench_dir, build_dir)

    data_dir = os.path.join(build_dir, "data", str(os.getpid()))
    trace_out = os.path.join(build_dir, "traces",
                             f"{args.workload}-seed{args.seed}.json")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", data_dir, "--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
