#!/usr/bin/env python3
"""Aggregate gcov line coverage and gate it against the committed floors.

Usage: check_coverage.py BUILD_DIR [--report coverage_report.json]
                                   [--baseline tools/coverage/baseline.json]

Run the test suite under the `coverage` preset first (IWSCAN_COVERAGE=ON
writes one .gcda per TU), then point this script at the build directory. It
invokes `gcov --json-format` on every .gcda, merges the per-TU line tables
(a header exercised by any TU counts as covered), and computes line
coverage for each source group named in the baseline file.

The baseline (tools/coverage/baseline.json unless --baseline names another
file) maps source-path prefixes to minimum line-coverage percentages, for
example { "src/core": 93.0 }; the floors themselves live only there.

Exit codes: 0 = all groups at or above their floor, 1 = a group dropped
below it, 2 = usage / no coverage data found. A full per-file breakdown is
written to --report for the CI artifact regardless of the verdict.
"""

import json
import os
import subprocess
import sys


def parse_args(argv):
    build_dir = None
    report_path = "coverage_report.json"
    baseline_path = os.path.join("tools", "coverage", "baseline.json")
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--report":
            report_path = args.pop(0)
        elif arg == "--baseline":
            baseline_path = args.pop(0)
        elif build_dir is None:
            build_dir = arg
        else:
            return None
    if build_dir is None:
        return None
    return build_dir, report_path, baseline_path


def find_gcda(build_dir):
    for root, _dirs, files in os.walk(build_dir):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def gcov_json(gcda_path):
    """One gcov invocation → parsed JSON documents (one per source file)."""
    gcda_path = os.path.abspath(gcda_path)
    result = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda_path],
        capture_output=True,
        text=True,
        check=False,
        cwd=os.path.dirname(gcda_path),
    )
    documents = []
    for line in result.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            documents.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return documents


def merge_coverage(build_dir, source_root):
    """(file → {line → max hit count}) across every TU that compiled it."""
    lines_by_file = {}
    for gcda in find_gcda(build_dir):
        for document in gcov_json(gcda):
            for entry in document.get("files", []):
                path = os.path.normpath(entry["file"])
                if os.path.isabs(path):
                    path = os.path.relpath(path, source_root)
                if path.startswith(".."):
                    continue  # system / third-party header
                table = lines_by_file.setdefault(path, {})
                for line in entry.get("lines", []):
                    number = line["line_number"]
                    table[number] = max(table.get(number, 0), line["count"])
    return lines_by_file


def group_stats(lines_by_file, prefix):
    covered = total = 0
    files = {}
    for path, table in sorted(lines_by_file.items()):
        if not path.startswith(prefix):
            continue
        file_covered = sum(1 for count in table.values() if count > 0)
        covered += file_covered
        total += len(table)
        files[path] = {
            "lines": len(table),
            "covered": file_covered,
            "percent": round(100.0 * file_covered / len(table), 2) if table else 0.0,
        }
    percent = 100.0 * covered / total if total else 0.0
    return {"percent": round(percent, 2), "covered": covered, "lines": total,
            "files": files}


def main(argv):
    parsed = parse_args(argv)
    if parsed is None:
        print(__doc__, file=sys.stderr)
        return 2
    build_dir, report_path, baseline_path = parsed

    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)

    source_root = os.getcwd()
    lines_by_file = merge_coverage(build_dir, source_root)
    if not lines_by_file:
        print(f"no .gcda coverage data under {build_dir}; "
              "build with the 'coverage' preset and run ctest first",
              file=sys.stderr)
        return 2

    report = {"groups": {}}
    failed = False
    for prefix, floor in sorted(baseline.items()):
        stats = group_stats(lines_by_file, prefix)
        stats["floor"] = floor
        report["groups"][prefix] = stats
        verdict = "OK" if stats["percent"] >= floor else "BELOW FLOOR"
        if stats["percent"] < floor:
            failed = True
        print(f"{prefix}: {stats['percent']:.2f}% line coverage "
              f"({stats['covered']}/{stats['lines']} lines, floor {floor}%) "
              f"[{verdict}]")

    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(f"report written to {report_path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
