#!/usr/bin/env python3
"""Smoke test of the per-operation ledger.

Runs every workload briefly through perfbench/run.py, from the repository
root:

    python3 perfbench/smoke_test.py [--seconds 2]

and checks that each run
  - exits 0 and passes the correctness gate with no failed operation;
  - emits every metric BENCHMARK.json names, with its unit (run.py checks
    names and units; this script checks the values);
  - reports nonzero end-to-end metrics and a metered page count that is
    bit-identical across two runs. The metering pass builds its own base
    and op stream from a fixed seed, so the two runs' different --seed
    values do not reach it: this checks cross-run determinism only;
  - loads the layer the workload exists for: evict_mix misses the buffer
    pool and writes pages back on eviction, and snapshot_rw commits one MVCC
    transaction per update.
Exits non-zero on the first violation.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload} trace={trace}: correctness gate "
                             f"failed ({result['failed']} failed ops)")
    if result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: no attempted ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    try:
        for workload in workloads:
            e2e = run(workload, 7, args.seconds, 0)
            again = run(workload, 8, args.seconds, 0)
            layers = run(workload, 7, args.seconds, 1)
            for name, value in e2e.items():
                check(value > 0, f"{workload}: {name} is {value}")
            check(e2e["metered_pages_per_op"] == again["metered_pages_per_op"],
                  f"{workload}: metered pages differ between two runs")
            check(layers["failed_frac"] == 0, f"{workload}: failed_frac > 0")
            if workload == "evict_mix":
                check(layers["buffer.misses_per_op"] > 0,
                      "evict_mix did not miss the buffer pool")
                check(layers["buffer.writebacks_per_op"] > 0,
                      "evict_mix wrote no page back on eviction")
            elif workload == "snapshot_rw":
                check(layers["mvcc.commits_per_update"] >= 1,
                      "snapshot_rw committed no MVCC transaction per update")
                check(layers["buffer.snapshot_misses_per_query"] > 0,
                      "snapshot_rw readers never reached their pools")
            print(f"smoke: {workload} ok")
    except AssertionError as err:
        print(f"smoke: FAILED: {err}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
