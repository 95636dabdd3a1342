#!/usr/bin/env python3
"""Compare two --trace-out JSONL files run for run.

Usage: compare_traces.py A B

Runs are keyed by (workload, component, faults, run). Every field must
match except the host-bookkeeping tail (wall_us, replayed, cohort,
forked_at), which depends on timing, journal state and which execution
path served the run. Exits non-zero on an empty trace, differing run
sets or any mismatched run.
"""

import json
import sys

HOST_FIELDS = ("wall_us", "replayed", "cohort", "forked_at")


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            key = (r["workload"], r["component"], r["faults"], r["run"])
            for field in HOST_FIELDS:
                r.pop(field, None)
            runs[key] = r
    return runs


def main(argv):
    if len(argv) != 3:
        sys.exit(f"usage: {argv[0]} A B")
    a, b = load(argv[1]), load(argv[2])
    if not a:
        sys.exit(f"{argv[1]}: trace is empty")
    if a.keys() != b.keys():
        sys.exit(f"run sets differ: {len(a.keys() - b.keys())} only in "
                 f"{argv[1]}, {len(b.keys() - a.keys())} only in {argv[2]}")
    diff = sorted(k for k in a if a[k] != b[k])
    if diff:
        sys.exit(f"{len(diff)} mismatched runs, e.g. {diff[:3]}")
    print(f"ok: {len(a)} runs identical between {argv[1]} and {argv[2]}")


if __name__ == "__main__":
    main(sys.argv)
