#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and the harness from source,
runs one workload, checks its outputs and prints its metrics.

    python3 perfbench/run.py --workload city|city_overload|bulk \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build). Untraced repeats of the workload run until the next one would
overrun --seconds (at least one); --trace 1 adds one traced run. The last line
of stdout is the result: {"correct", "attempted", "failed", "metrics"} with
every end-to-end metric (--trace 0) or every per-layer metric (--trace 1).
The line before it is the host and build fingerprint. See README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_REPEATS = 50
BUILD_TIMEOUT_S = 850
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    out = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "perfbench_harness", "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_harness")


def harness(binary, workload, seed, traced):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--traced", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        fail("harness exited %d: %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    ap.add_argument("--seed", type=int, default=benchlib.DEV_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    repeats = []
    start = time.monotonic()
    while len(repeats) < MAX_REPEATS:
        t0 = time.monotonic()
        repeats.append(harness(binary, args.workload, args.seed, False))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > args.seconds:
            break
    traced = harness(binary, args.workload, args.seed, True) if args.trace else None

    problems = benchlib.check(args.workload, repeats, traced)
    attempted = failed = 0
    for r in repeats + ([traced] if traced else []):
        a, f = benchlib.operations(args.workload, r["sim"])
        attempted += a
        failed += f
    if args.trace:
        values, table = benchlib.per_layer(repeats, traced), benchlib.PER_LAYER
    else:
        values, table = benchlib.end_to_end(args.workload, repeats), benchlib.END_TO_END
    names = [n for n in values if not benchlib.valid_metric_name(n)]
    if names:
        problems.append("invalid metric names: " + ", ".join(names))
    for p in problems:
        print("perfbench: check failed: " + p, file=sys.stderr)
    if problems:
        failed = attempted

    sim = repeats[0]["sim"]
    echoes = (benchlib.probe_account(sim) if args.workload == "bulk"
              else benchlib.ping_account(sim))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "repeats": len(repeats),
        "rtt_samples": sim["probes_ok"], "echoes_in_flight": echoes.in_flight,
        "host": benchlib.fingerprint(repeats[0]["build"]),
    }))
    print(json.dumps(benchlib.result(values, table, not problems,
                                     max(1, attempted), failed)))


if __name__ == "__main__":
    main()
