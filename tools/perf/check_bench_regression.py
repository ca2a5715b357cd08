#!/usr/bin/env python3
"""Compare fresh `--json` bench runs against the committed baseline.

Usage: check_bench_regression.py BENCH_datapath.json FRESH.json [FRESH.json...]

Every fresh file contributes the entries of its top-level `benchmarks`
array (bench_micro emits one per case, including the whole-scan
stateless_sweep_rate / stateful_iw_scan_rate; bench_spill emits the spill
rates). A name appearing in several files takes the last file's value.

The baseline file (see BENCH_datapath.json at the repo root) maps benchmark
names to expected counters. Two kinds of counters are checked:

  * rates (items_per_second, bytes_per_second): the fresh value must be at
    least (1 - TOLERANCE) of the baseline — a >25% drop fails the job;
  * ceilings (allocs_per_packet, allocs_per_conn, allocs_per_host,
    allocs_per_flight, peak_rss_bytes): the
    fresh value must not exceed the baseline — allocation counts are
    deterministic and the spill path's RSS is O(segment) by design, so any
    excess is a real regression, not noise.

Exits 0 when the baseline file does not exist (fresh branches without a
committed baseline skip the check) and 1 on any regression.
"""

import json
import sys

TOLERANCE = 0.25
RATE_KEYS = ("items_per_second", "bytes_per_second")
CEILING_KEYS = ("allocs_per_packet", "allocs_per_conn", "allocs_per_host",
                "allocs_per_flight", "peak_rss_bytes")


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path, fresh_paths = argv[1], argv[2:]

    try:
        baseline = load(baseline_path)
    except FileNotFoundError:
        print(f"no committed baseline at {baseline_path}; skipping perf check")
        return 0
    by_name = {}
    for fresh_path in fresh_paths:
        fresh = load(fresh_path)
        by_name.update({entry["name"]: entry for entry in fresh.get("benchmarks", [])})
    failures = []
    for name, expected in baseline.get("baseline", {}).items():
        entry = by_name.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the fresh run")
            continue
        for key, want in expected.items():
            got = entry.get(key)
            if got is None:
                failures.append(f"{name}: counter {key} missing from the fresh run")
            elif key in RATE_KEYS:
                floor = want * (1.0 - TOLERANCE)
                verdict = "FAIL" if got < floor else "ok"
                print(f"{verdict:4} {name} {key}: {got:.3g} vs baseline "
                      f"{want:.3g} (floor {floor:.3g})")
                if got < floor:
                    failures.append(f"{name}: {key} {got:.3g} < floor {floor:.3g}")
            elif key in CEILING_KEYS:
                verdict = "FAIL" if got > want else "ok"
                print(f"{verdict:4} {name} {key}: {got:.3g} vs ceiling {want:.3g}")
                if got > want:
                    failures.append(f"{name}: {key} {got:.3g} > ceiling {want:.3g}")
            else:
                failures.append(f"{name}: unknown counter kind '{key}' in baseline")

    if failures:
        print(f"\n{len(failures)} perf regression(s) vs {baseline_path}:")
        for failure in failures:
            print(f"  {failure}")
        print("If the change is intentional, refresh the baseline "
              "(see DESIGN.md, Performance).")
        return 1
    print(f"\nall benchmarks within tolerance of {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
