#!/usr/bin/env python3
"""The repo benchmark: builds the harness and runs one workload (or all).

    python3 perfbench/run.py --workload cold_serial --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run it from the root of a gpuc checkout. The harness (perfbench/harness,
built by perfbench/CMakeLists.txt from ../src) is built into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, which also
holds the verdict store, the daemon's scratch directories and the traces.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. For a workload listed in BENCHMARK.json the
metrics are exactly its end_to_end metrics (--trace 0) or its per_layer
metrics (--trace 1); lint_check, which BENCHMARK.json leaves out (see
perfbench/README.md), reports everything the harness measures. The exit
code is non-zero when the build fails, a metric is missing or any output
is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["cold_serial", "cold_parallel", "daemon_mixed", "lint_check"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 900


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(base, "perfbench")
    # Relative paths keep the daemon's Unix socket path short.
    if os.path.isabs(path) and os.path.commonpath([path, ROOT]) == ROOT:
        path = os.path.relpath(path, ROOT)
    return path


def build(bdir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "gpuc-perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)} exited {done.returncode}")
            return None
    return os.path.join(bdir, "gpuc-perfbench")


def declared_metrics(workload, trace):
    """Metric names BENCHMARK.json fixes for this workload, or None."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    if workload not in {w["name"] for w in spec.get("workloads", [])}:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, state, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (result, exit code)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--state-dir", state]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"{workload}: harness timed out")
        return None, 1
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"{workload}: harness exited {proc.returncode} without a result")
        return None, proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    wanted = declared_metrics(workload, trace)
    if wanted is not None:
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing:
            log(f"{workload}: metrics not measured: {', '.join(missing)}")
            return None, 1
        result["metrics"] = {m: result["metrics"][m] for m in wanted}
    return result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 1
    state = os.path.join(bdir, "state")

    if args.workload != "all":
        result, code = run_one(binary, state, args.workload, args.seed,
                               args.seconds, args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    # Every workload, each in its own process, as one table.
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        print(f"== {workload} ==", flush=True)
        result, code = run_one(binary, state, workload, args.seed,
                               args.seconds, args.trace)
        worst = worst or code
        if result is None:
            summary["correct"] = False
            continue
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        print(f"failed_frac {result['failed'] / result['attempted']:.4f} "
              f"({result['failed']} of {result['attempted']})")
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return worst or (0 if summary["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
