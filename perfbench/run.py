#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end service benchmark.

    python3 perfbench/run.py --workload mem_read --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds the
`perfbench` binary (with the pmi library from ../src) under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build.  The binary's
output is passed through; its last line is the JSON result.  The metric
names in that result must be exactly the ones BENCHMARK.json lists for
the run's trace mode.  Exit code 0 only when the build succeeded, every
answer matched the oracle, and no request failed.  `--workload all` runs
every workload in turn (its last line is the last workload's result).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("mem_read", "mixed_durable", "disk_pool")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    bdir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if proc.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "perfbench")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(binary, build_dir, workload, args):
    """Runs one workload; returns its exit code."""
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    trace_dir = os.path.join(build_dir, "traces")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", git_commit()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (workload, args.seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("%s exceeded %d s" % (workload, RUN_TIMEOUT_S))
        return 4
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        log("%s exited with %d" % (workload, proc.returncode))
        return proc.returncode

    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = expected_metrics(args.trace)
    if want is not None and set(result.get("metrics", {})) != want:
        got = set(result.get("metrics", {}))
        log("metric names differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(want - got), sorted(got - want)))
        return 5
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = run_one(binary, build_dir, workload, args) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
