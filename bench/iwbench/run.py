#!/usr/bin/env python3
"""Build and run iwbench; print every metric by name, check every output.

Each workload runs in its own process (so peak RSS is per workload) for a
measuring budget of --seconds, in whole passes. Untraced runs report the
end-to-end metrics of BENCHMARK.json; traced runs (--trace 1) report its
per-layer metrics, and check that the traced replay produced exactly the
records of the untraced pipeline.

    python3 bench/iwbench/run.py --workload http_stateful --seed 42 --seconds 10
    python3 bench/iwbench/run.py --seed 42 --scan-seed 7 --repeat 10 --out r.json
    python3 bench/iwbench/run.py --traced --trace-dir traces/
    python3 bench/iwbench/run.py --smoke

Every metric prints as `workload metric value unit`; with --repeat N the
value is the median, followed by the quartiles and the run count. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. The exit code is 1 when any correctness check fails, 2 on a usage
or build error.
"""

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["http_stateful", "sweep_capped", "tls_sharded_spill",
             "hostile_lossy", "spill_merge"]
BUILD_TYPE = "RelWithDebInfo"
# A binary run gets its measuring budget plus room for set-up, the last
# pass, the truth pass and teardown.
RUN_SLACK_S = 150


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def metric_names():
    """(end_to_end, per_layer) metric names, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def build(build_dir):
    """Configure once, then build incrementally; the lock serialises
    concurrent runs sharing one build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no iwscan sources under {ROOT / 'src'}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(build_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")


def run_binary(binary, workload, args, seconds, work_dir, trace_dir=None):
    """Runs one binary on one workload; returns its report (None on crash)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--scan-seed", str(args.scan_seed), "--seconds", str(seconds),
           "--work-dir", str(work_dir)]
    if args.smoke:
        cmd.append("--smoke")
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {binary.name} {workload} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"run.py: {binary.name} {workload} exited {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_workload(workload, args, build_dir, work_dir, names):
    """One run of one workload. Returns (metrics, attempted, failed, errors)."""
    # A traced run still needs the untraced records and scan_s, to check
    # identity and to price the tracing; a quarter of the budget buys them.
    untraced = run_binary(build_dir / "iwbench", workload, args,
                          args.seconds / 4 if args.trace else args.seconds, work_dir)
    if untraced is None:
        return {}, 1, 1, [f"{workload}: iwbench failed"]
    errors = [f"{workload}: {failure}" for failure in untraced["failures"]]
    report = untraced
    metrics = untraced["metrics"]
    wanted = names[0]
    if args.trace:
        trace_dir = None if args.trace_dir is None else Path(args.trace_dir).resolve()
        report = run_binary(build_dir / "iwbench_traced", workload, args,
                            args.seconds, work_dir, trace_dir)
        if report is None:
            return {}, 1, 1, errors + [f"{workload}: iwbench_traced failed"]
        errors += [f"{workload}: traced: {failure}" for failure in report["failures"]]
        if (report["digest"], report["records"]) != (untraced["digest"],
                                                     untraced["records"]):
            errors.append(f"{workload}: traced records differ from untraced "
                          f"({report['records']} records, digest {report['digest']} "
                          f"vs {untraced['records']}, {untraced['digest']})")
        metrics = dict(report["metrics"])
        traced_s = metrics.pop("trace.pass_s")["value"]
        untraced_s = untraced["metrics"]["scan_s"]["value"]
        metrics["trace.overhead_pct"] = {
            "value": (traced_s / untraced_s - 1.0) * 100.0 if untraced_s > 0 else 0.0,
            "unit": "%"}
        wanted = names[1]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        errors.append(f"{workload}: metrics not reported: {', '.join(missing)}")
    metrics = {name: metrics[name] for name in wanted if name in metrics}
    failed = max(report["failed"], untraced["failed"])
    if errors and failed == 0:  # a check across binaries failed
        failed = report["attempted"]
    return metrics, report["attempted"], failed, errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def machine(build_dir):
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    build_type = BUILD_TYPE
    try:
        for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1] or build_type
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "build_type": build_type}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=42, help="world seed")
    parser.add_argument("--scan-seed", type=int, default=7, help="scanner seed")
    parser.add_argument("--seconds", type=float, default=10,
                        help="measuring budget per run, in whole passes")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from the traced binary")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--trace-dir", help="write Chrome trace-event JSON here")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run's metrics to this JSON file")
    parser.add_argument("--build-dir", default=str(ROOT / ".bench_build" / "iwbench"))
    parser.add_argument("--no-build", action="store_true",
                        help="use the binaries already in --build-dir")
    parser.add_argument("--smoke", action="store_true",
                        help="2^12-2^14 inputs, one pass, traced identity checks")
    args = parser.parse_args()
    args.trace = args.trace == 1 or args.traced or args.smoke
    if args.smoke:
        args.seconds = 0
    if args.repeat < 1:
        fail("--repeat must be at least 1")
    workloads = args.workload or WORKLOADS
    names = metric_names()

    build_dir = Path(args.build_dir).resolve()
    if not args.no_build:
        build(build_dir)
    work_dir = build_dir / "work" / str(os.getpid())

    runs = {w: [] for w in workloads}
    units = {}
    attempted = failed = 0
    errors = []
    try:
        for workload in workloads:
            for _ in range(args.repeat):
                metrics, tried, bad, problems = run_workload(
                    workload, args, build_dir, work_dir, names)
                attempted += tried
                failed += bad
                errors += problems
                runs[workload].append({k: v["value"] for k, v in metrics.items()})
                units.update({k: v["unit"] for k, v in metrics.items()})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for name in names[1] if args.trace else names[0]:
            values = [r[name] for r in results if name in r]
            if not values:
                continue
            q1, q3 = quartiles(values)
            row = {"median": statistics.median(values), "q1": q1, "q3": q3,
                   "n": len(values), "unit": units[name]}
            summary[workload][name] = row
            if args.repeat == 1:
                print(f"{workload} {name} {row['median']:.6g} {row['unit']}")
            else:
                print(f"{workload} {name} {row['median']:.6g} {row['unit']} "
                      f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    for error in errors:
        print(f"run.py: check failed: {error}", file=sys.stderr)

    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed, "scan_seed": args.scan_seed, "seconds": args.seconds,
            "traced": args.trace, "smoke": args.smoke, "machine": machine(build_dir),
            "runs": runs, "summary": summary}, indent=1) + "\n")

    single = len(workloads) == 1
    metrics = {(name if single else f"{workload}/{name}"):
               {"value": row["median"], "unit": row["unit"]}
               for workload, rows in summary.items() for name, row in rows.items()}
    print(json.dumps({"correct": not errors, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
