#!/usr/bin/env python3
"""Builds the Surfer benchmark from this checkout and runs one workload.

    python3 surfer_bench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
harness and the Surfer libraries under .bench_build/ (a few minutes); later
runs only re-check the build. The harness prints each metric as
`name value unit` and, as the last line of standard output, one JSON object
with the keys correct, attempted, failed and metrics. Traced runs write
their Chrome trace and per_layer.json under .bench_build/trace/.

Exits 2 on a usage error or when the checkout holds no Surfer sources, and
with the harness's own status otherwise.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("batch-o4", "batch-o1", "batch-dist", "serve-hot", "serve-cold")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_checked(command, timeout):
    """Runs a build step with its output on stderr; exits on failure."""
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(command)}", 1)
    if result.returncode != 0:
        fail(f"failed ({result.returncode}): {' '.join(command)}", 1)


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", os.path.join(root, "surfer_bench"),
                     "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", build_dir, "--target", "surfer_bench",
                 "-j", "4"], BUILD_TIMEOUT_S)


def expected_metrics(root, trace):
    """The metric names BENCHMARK.json declares for this mode, if present."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no Surfer sources (CMakeLists.txt and src/) under {root}")
    build_dir = os.path.join(root, ".bench_build", "surfer_bench")
    build(root, build_dir)

    trace_dir = os.path.join(root, ".bench_build", "trace",
                             f"{args.workload}-seed{args.seed}")
    command = [os.path.join(build_dir, "surfer_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", trace_dir]
    # A session of its own, so a timeout also reaches the worker processes
    # the distributed engine forks.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    sys.stdout.write(output)
    sys.stdout.flush()
    if process.returncode != 0:
        sys.exit(process.returncode)

    lines = output.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        fail("the harness's last line is not a JSON result", 1)
    expected = expected_metrics(root, args.trace == 1)
    if expected is not None and set(result.get("metrics", {})) != expected:
        fail("the harness's metrics differ from BENCHMARK.json's", 1)


if __name__ == "__main__":
    main()
