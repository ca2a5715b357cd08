#!/usr/bin/env python3
"""Compare parent and change result files of run.py, metric by metric.

Run the parent and the change alternately, at least ten pairs, each with
`run.py --out FILE`; then

    python3 bench/iwbench/compare.py --parent p1.json p2.json ... \
                                     --change c1.json c2.json ...

Runs pair up in the order given (the i-th parent run with the i-th change
run). Each (workload, metric) gets its own row: both sides' median and
quartiles, the change's win share over the pairs (ties count for neither),
and a verdict against the metric's bound in BENCHMARK.json:

  regression  the change's median is worse than the parent's by more than
              the bound (exit code 1)
  unresolved  the parent's own spread (quartile distance over median) is
              wider than the bound, and not every change run beats every
              parent run
  gain        over at least ten pairs, the change wins at least 9 in 10 and
              the medians differ by more than the parent's quartile distance
  ok          none of the above
Per-layer metrics have no bound; their rows carry no verdict.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
MIN_PAIRS = 10  # fewer pairs never support a gain


def load_runs(paths):
    """workload -> metric -> values, concatenated over the files in order."""
    runs = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        for workload, results in data["runs"].items():
            for result in results:
                for name, value in result.items():
                    runs.setdefault(workload, {}).setdefault(name, []).append(value)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent, change, lower_is_better, bound):
    """(win share, worse-by share, verdict) for one metric on one workload."""
    better = (lambda c, p: c < p) if lower_is_better else (lambda c, p: c > p)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    win_share = wins / len(pairs) if pairs else 0.0
    p_median, c_median = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    if p_median == 0:  # an idle layer: no relative change to judge
        return win_share, 0.0, ""
    worse = (c_median - p_median) / abs(p_median)
    if not lower_is_better:
        worse = -worse
    if bound is None:
        return win_share, worse, ""
    every_run_better = all(better(c, p) for c in change for p in parent)
    if (p_q3 - p_q1) / abs(p_median) > bound and not every_run_better:
        return win_share, worse, "unresolved"
    if worse > bound:
        return win_share, worse, "regression"
    if (len(pairs) >= MIN_PAIRS and win_share >= 0.9 and worse < 0
            and abs(c_median - p_median) > p_q3 - p_q1):
        return win_share, worse, "gain"
    return win_share, worse, "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent result files")
    parser.add_argument("--change", nargs="+", required=True, help="change result files")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent, change = load_runs(args.parent), load_runs(args.change)

    print(f"{'workload':18} {'metric':32} {'unit':9} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>8} {'wins':>5}  verdict")
    regressions = 0
    for workload in parent:
        for name, p_values in parent[workload].items():
            c_values = change.get(workload, {}).get(name)
            if not c_values or name not in metrics:
                continue
            spec_row = metrics[name]
            win_share, worse, result = verdict(p_values, c_values,
                                               spec_row["better"] == "lower",
                                               spec_row.get("bound"))
            regressions += result == "regression"
            sides = []
            for values in (p_values, c_values):
                q1, q3 = quartiles(values)
                sides.append(f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{workload:18} {name:32} {spec_row['unit']:9} {sides[0]:>34} "
                  f"{sides[1]:>34} {worse:>+8.2%} {win_share:>5.0%}  {result}")
    pairs = min((min(len(values), len(change.get(w, {}).get(name, [])))
                 for w, rows in parent.items() for name, values in rows.items()),
                default=0)
    print(f"\n{pairs} pairs; {regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
