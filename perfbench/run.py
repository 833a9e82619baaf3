#!/usr/bin/env python3
"""Campaign benchmark: build it from this checkout and run one workload.

    python3 perfbench/run.py --workload seq_quota --seed 1 --seconds 25 --trace 0

Builds perfbench/ (the library, the `torpedo` CLI and campaign_bench) into
.bench_build/ at the checkout root, runs campaign_bench there and prints its
result as the last line of standard output:

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

Exits non-zero without a result line when the build or the run fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("seq_quota", "shards2_runsc", "fleet2")
# A run past this is killed, so the whole invocation ends inside 180 s.
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4


def build():
    """Configures once, then brings the build up to date. Returns the benchmark
    binary and CLI paths, or None when the checkout cannot be built."""
    cmake = BUILD_DIR / "cmake"
    steps = []
    if not (cmake / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake), "-j", str(BUILD_JOBS)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return None
    bench = cmake / "campaign_bench"
    torpedo = cmake / "torpedo_tools" / "torpedo"
    if not (bench.is_file() and torpedo.is_file()):
        return None
    return bench, torpedo


def run_bench(argv, cwd):
    """Runs campaign_bench in its own process group; on timeout the whole group
    (fleet workers included) is killed and reaped."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: campaign_bench exited {proc.returncode}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    built = build()
    if built is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    bench, torpedo = built

    work = BUILD_DIR / "work"
    work.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    argv = [str(bench), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--torpedo", str(torpedo),
            "--digest-file", str(BUILD_DIR / "digests" / tag),
            "--spans-out", str(BUILD_DIR / "spans" / f"{tag}.jsonl")]
    result = run_bench(argv, work)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
