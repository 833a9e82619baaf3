#!/usr/bin/env python3
"""Determinism test for the benchmark's exact per-layer counters.

    python3 perfbench/check_counters.py [--seed N] [WORKLOAD ...]

Runs the traced benchmark twice per workload (default: all three) with one
seed and fails unless every deterministic counter reads the same in both
runs. A one-second traced run is two untraced/traced campaign pairs, and it
already fails when its campaigns disagree, so a pass means eight campaigns
per workload agreed exactly.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("seq_quota", "shards2_runsc", "fleet2")
# Counters with no timing in them: equal across runs of one seed, or a bug.
EXACT = (
    "sim.quanta_per_exec", "sim.picks_per_exec", "sim.segments_per_exec",
    "sim.wakeups_per_exec", "cgroup.periods_per_exec",
    "cgroup.throttled_per_exec", "kernel.syscalls_per_exec",
    "runtime.container_crashes", "runtime.container_restarts",
    "exec.executions", "exec.fatal_respawns_per_exec", "observer.rounds",
    "prog.mutations_per_exec", "prog.accept_ratio", "core.suspects",
    "core.confirmations", "core.confirm_yield", "feedback.hub_epochs",
    "feedback.hub_published", "feedback.hub_unique", "feedback.hub_pulled",
    "feedback.hub_unique_ratio", "fleet.restarts", "telemetry.spans",
)


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload}: traced run failed its output check")
    return {name: result["metrics"][name]["value"] for name in EXACT}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_run(workload, args.seed)
        second = traced_run(workload, args.seed)
        diff = [n for n in EXACT if first[n] != second[n]]
        for name in diff:
            print(f"{workload}: {name} {first[name]!r} != {second[name]!r}")
        print(f"{workload}: {'FAIL' if diff else 'ok'} "
              f"({len(EXACT)} counters, exec.executions="
              f"{first['exec.executions']:.0f})")
        ok = ok and not diff
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
