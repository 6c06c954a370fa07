#!/usr/bin/env python3
"""Merge several exports of one experiment into their per-record medians.

    ci/bench_median.py run1.json run2.json ... > BENCH_E3.json

Records are matched by position (every run of a deterministic sweep
emits the same records in the same order); `ms` becomes the median
over the runs, everything else is taken from the first run.
"""
import json
import statistics
import sys

runs = [json.load(open(path)) for path in sys.argv[1:]]
merged = runs[0]
for i, record in enumerate(merged["records"]):
    others = [run["records"][i] for run in runs]
    key = ("workload", "algo", "n")
    assert all([o[k] for k in key] == [record[k] for k in key] for o in others)
    record["ms"] = statistics.median(o["ms"] for o in others)
merged["source"] += f", per-record median of {len(runs)} runs"
json.dump(merged, sys.stdout, separators=(",", ":"))
print()
