#!/usr/bin/env python3
"""Checks that committed BENCH_*.json artifacts match a fresh bench run.

Usage, from the repository root:

    python3 scripts/check_bench_keys.py <fresh-dir>

For every BENCH_*.json in the repository root, the file of the same name in
<fresh-dir> (written by a fresh run of its bench) must exist and match it in
two ways:

- Keys. Both files carry the same set of keys. A key is the path from the
  root of the JSON document to an object member. Lists count as one
  element: the members of every object in a list share the path
  "<list>[]", and a list of numbers (a histogram's buckets, whose length
  follows the measured latencies) is a value.
- Metered page counts. Every field named "pages", "page_reads" or
  "page_writes", or whose name ends in "_pages" or "_base_reads", holds the
  same value in both files. A metrics-registry counter is named by the last
  dot-separated part of its key ("disk.file.pages" is named "pages").
  Inside a list, each element is compared with the element at the same
  index.

Other values are not compared: wall-clock and latency fields differ from
run to run. Exits non-zero on the first artifact that differs, printing the
keys only one side has, or the page counts that differ.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAGE_COUNT = re.compile(
    r"^(pages|page_reads|page_writes)$|_pages$|_base_reads$")


def key_paths(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}"
            yield path
            yield from key_paths(value, path)
    elif isinstance(node, list):
        for value in node:
            yield from key_paths(value, f"{prefix}[]")


def page_counts(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}"
            if PAGE_COUNT.search(key.rsplit(".", 1)[-1]) and not isinstance(
                value, (dict, list)
            ):
                yield path, value
            yield from page_counts(value, path)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from page_counts(value, f"{prefix}[{index}]")


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
        want_doc = json.loads(path.read_text())
        got_doc = json.loads(fresh.read_text())
        want = set(key_paths(want_doc))
        got = set(key_paths(got_doc))
        if want != got:
            print(f"check_bench_keys: {path.name} is stale", file=sys.stderr)
            for key in sorted(want - got):
                print(f"  only committed: {key}", file=sys.stderr)
            for key in sorted(got - want):
                print(f"  only fresh:     {key}", file=sys.stderr)
            sys.exit(1)
        want_pages = dict(page_counts(want_doc))
        got_pages = dict(page_counts(got_doc))
        differ = sorted(
            key for key in want_pages.keys() | got_pages.keys()
            if want_pages.get(key) != got_pages.get(key)
        )
        if differ:
            print(f"check_bench_keys: {path.name} has stale page counts",
                  file=sys.stderr)
            for key in differ:
                print(f"  {key}: committed {want_pages.get(key)}, "
                      f"fresh {got_pages.get(key)}", file=sys.stderr)
            sys.exit(1)
        print(f"check_bench_keys: {path.name} matches ({len(want)} keys, "
              f"{len(want_pages)} page counts)")


if __name__ == "__main__":
    main()
