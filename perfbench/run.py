#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload enroll|auth_socket|auth_fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the xpuf libraries and the benchmark
binary from source (Release, into $CARGO_TARGET_DIR or .bench_build), runs
one workload, and prints the binary's report followed, as the last line, by
one JSON object with exactly the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer ones. Exits non-zero, without
printing a result, when the build fails, the binary fails or times out, or
its metrics do not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("enroll", "auth_socket", "auth_fleet")
BINARY_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "xpuf_perfbench", "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "xpuf_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "run")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % BINARY_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        print(lines[-1])
        fail("benchmark binary exited with code %d" % proc.returncode)
    full = json.loads(lines[-1])
    print(lines[-1])  # the full record: run record, violations, every metric

    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None:
            fail("benchmark binary did not report " + m["name"])
        if got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {"correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
