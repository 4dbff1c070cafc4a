#!/usr/bin/env python3
"""Builds the axc library and the benchmark program from source, then runs
one benchmark workload.

    python3 perfbench/run.py --workload <encode|serve_hot|sweep_cold> \\
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is reused
by later runs; span files of traced runs land in its traces/ directory.
The last line of stdout is axc_perfbench's JSON result; its metric names and
units are checked against BENCHMARK.json. The exit status is non-zero when
the build fails, a correctness check or self-guard fails, or the result
does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    source_dir = os.path.dirname(os.path.abspath(__file__))
    jobs = str(min(4, os.cpu_count() or 1))
    # Configuring again is cheap and recovers a tree whose first configure
    # failed; the build itself is incremental.
    steps = [["cmake", "-S", source_dir, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "axc_perfbench",
              "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            fail("build step failed: " + " ".join(step))


def check_metrics(result, spec, trace):
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; expected one of "
             f"{workloads}")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    out_dir = os.path.join(build_dir, "traces")
    os.makedirs(out_dir, exist_ok=True)

    command = [os.path.join(build_dir, "axc_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", out_dir]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        fail(f"axc_perfbench exited with status {done.returncode}")
    result = json.loads(lines[-1])
    # Human-readable lines first, then the result as the last line.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    check_metrics(result, spec, args.trace == "1")
    print(lines[-1], flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
