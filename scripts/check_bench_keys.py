#!/usr/bin/env python3
"""Checks that committed BENCH_*.json artifacts match a fresh bench run.

Usage, from the repository root:

    python3 scripts/check_bench_keys.py <fresh-dir>

For every BENCH_*.json in the repository root, the file of the same name in
<fresh-dir> (written by a fresh run of its bench) must exist and carry the
same set of keys. A key is the path from the root of the JSON document to
an object member. Lists count as one element: the members of every object
in a list share the path "<list>[]", and a list of numbers (a histogram's
buckets, whose length follows the measured latencies) is a value. Values
are not compared: wall-clock fields differ from run to run. Exits non-zero
on the first artifact whose key set differs, printing the keys only one
side has.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def key_paths(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}"
            yield path
            yield from key_paths(value, path)
    elif isinstance(node, list):
        for value in node:
            yield from key_paths(value, f"{prefix}[]")


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    fresh_dir = Path(sys.argv[1])
    committed = sorted(ROOT.glob("BENCH_*.json"))
    if not committed:
        sys.exit("check_bench_keys: no committed BENCH_*.json found")
    for path in committed:
        fresh = fresh_dir / path.name
        if not fresh.is_file():
            sys.exit(f"check_bench_keys: no fresh run wrote {path.name}")
        want = set(key_paths(json.loads(path.read_text())))
        got = set(key_paths(json.loads(fresh.read_text())))
        if want != got:
            print(f"check_bench_keys: {path.name} is stale", file=sys.stderr)
            for key in sorted(want - got):
                print(f"  only committed: {key}", file=sys.stderr)
            for key in sorted(got - want):
                print(f"  only fresh:     {key}", file=sys.stderr)
            sys.exit(1)
        print(f"check_bench_keys: {path.name} matches ({len(want)} keys)")


if __name__ == "__main__":
    main()
