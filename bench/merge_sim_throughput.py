#!/usr/bin/env python3
"""Fold several bench_sim_throughput runs into one conservative baseline.

Usage:
  python3 bench/merge_sim_throughput.py FULL.json [RUN.json ...] \\
      > BENCH_sim_throughput.json

Every run must come from the same worker count and best tier. The first
run sets the header, the point order and the serve slice, so it should be
a full run; later runs may cover a subset of its points, such as --smoke
runs, which time the CI gate's own shapes under the gate's own budget.
Each GEMM point is taken from the run where its speedup_vs_reference was
lowest, and each quantize point from the run where its quantize_share was
highest, so the committed baseline sits at the slow edge of the host's
run-to-run spread and the --tolerance gate fails on a real regression,
not on timing noise.
"""
import json
import sys


def point_key(point):
    return point["shape"], point["variant"]


def merge(runs):
    first = runs[0]
    order = [point_key(p) for p in first["points"]]
    seen = {key: [] for key in order}
    for run in runs:
        for field in ("bench", "threads", "best_tier"):
            if run[field] != first[field]:
                raise SystemExit(f"runs differ in '{field}'")
        for point in run["points"]:
            key = point_key(point)
            if key not in seen:
                raise SystemExit(f"point {key} is not in the first run")
            if point.get("bit_exact") is False:
                raise SystemExit(f"point {key} is not bit-exact")
            seen[key].append(point)
    points = []
    for key in order:
        same = seen[key]
        if "quantize_share" in same[0]:
            points.append(max(same, key=lambda p: p["quantize_share"]))
        else:
            points.append(min(same, key=lambda p: p["speedup_vs_reference"]))
    merged = dict(first)
    merged["points"] = points
    return merged


def main(paths):
    if not paths:
        raise SystemExit(__doc__)
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append(json.load(f))
    json.dump(merge(runs), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
