#!/usr/bin/env python3
"""Repository benchmark driver: builds mpc_e2e from source, runs it, and
prints its report, ending with one JSON line {correct, attempted, failed,
metrics}.

    python3 e2ebench/run.py --workload sync-honest-n10 --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root. With --trace 0 the set-up time is measured in three fresh
processes (this run's own and two that only set up) and reported as their
median. With --trace 1 the spans go to <build>/trace/<workload>-seed<n>.jsonl.
See README.md in this directory.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BINARY = os.path.join(BUILD, "mpc_e2e")
SETUP_SAMPLES = 3
RUN_TIMEOUT_S = 170


def fail(why):
    print(f"run.py: {why}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (a no-op once configured) and rebuilds whatever changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", "mpc_e2e", "-j", jobs]):
        # Build chatter goes to stderr: the last stdout line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_binary(extra):
    """Runs mpc_e2e; returns (report lines, result object)."""
    try:
        p = subprocess.run([BINARY] + extra, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"mpc_e2e did not finish within {RUN_TIMEOUT_S} s")
    lines = p.stdout.rstrip("\n").splitlines()
    if p.returncode != 0 or not lines:
        fail(f"mpc_e2e exited with code {p.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("mpc_e2e printed no result line")
    return lines[:-1], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(BUILD, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.jsonl")
        report, result = run_binary(common + ["--trace-out", out])
        report.append(f"spans written to {os.path.relpath(out, ROOT)}")
    else:
        report, result = run_binary(common)
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_SAMPLES - 1):
            _, extra = run_binary(common + ["--setup-only"])
            setups.append(extra["metrics"]["setup_s"]["value"])
            result["correct"] = result["correct"] and extra["correct"]
            result["attempted"] += extra["attempted"]
            result["failed"] += extra["failed"]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        ok = result["attempted"] - result["failed"]
        result["metrics"]["ok_frac"]["value"] = ok / result["attempted"]
        report.append("setup_s      median %.4f s of %d fresh processes: %s" % (
            statistics.median(setups), len(setups), ", ".join("%.4f" % s for s in setups)))

    for line in report:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
