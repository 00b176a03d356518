#!/usr/bin/env python3
"""Builds and runs the per-operation ledger (perfbench/ledger.cc).

Usage, from the repository root:

    python3 perfbench/run.py --workload <evict_mix|snapshot_rw> \
        --seed <n> --seconds <s> --trace <0|1>

The ledger is compiled from the repository's sources into
.bench_build/perfbench (configured once, then rebuilt incrementally). Its
segment files live in a per-run directory under .bench_build and are removed
afterwards. Standard output ends with the ledger's JSON result line; the
script checks that line against the metric names in BENCHMARK.json and
exits non-zero when the build, the run or that check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"repository sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ledger",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the ledger.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return BUILD / "ledger"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    data = BUILD / f"data-{os.getpid()}"
    shutil.rmtree(data, ignore_errors=True)
    data.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", str(data)]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ledger did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    print(f"perfbench: ledger ran {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if proc.returncode != 0:
        fail(f"ledger exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("ledger printed no result line")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, unit mismatch {wrong}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
