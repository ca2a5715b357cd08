// iwlint — project-specific static analyzer for the iwscan tree.
//
// Enforces the invariants no generic tool checks: the module DAG from
// DESIGN.md §3 (keeps the ZMap-style engine swappable), the byte/text
// bridge discipline of util/bytes.hpp, banned libc calls, wire-enum switch
// exhaustiveness, header hygiene, and seeded-determinism rules. Findings
// print as `file:line: rule: message`; every rule supports an inline
// suppression comment — the iwlint marker, then "allow(<rule>) -- <reason>",
// justification mandatory. See DESIGN.md "iwlint rule reference".
//
// Self-contained C++20: a small tokenizer (tokens.hpp) + include-graph
// walker + per-TU rule engine, plus a cross-TU call-graph layer
// (callgraph.hpp) for the hot-path purity, determinism-taint and unreached
// rules.
// No libclang; the whole tree lints in well under two seconds.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace iwscan::lint {

struct Finding {
  std::string file;  // repo-relative path, '/'-separated
  int line = 0;
  std::string rule;
  std::string message;
};

struct Options {
  // Rules to skip entirely (fixture tests use this to prove each rule is
  // load-bearing). Names as in rule_names().
  std::vector<std::string> disabled_rules;
};

/// One translation unit handed to the whole-program entry point. `path`
/// is repo-relative with forward slashes; only "src/..." files join the
/// call graph (the rest join the unreached rule as callers only),
/// everything still gets the per-TU rules.
struct SourceFile {
  std::string path;
  std::string content;
};

struct ProgramStats;  // callgraph.hpp

/// All rule identifiers accepted by suppression comments and --disable.
[[nodiscard]] const std::vector<std::string>& rule_names();

/// One-paragraph rationale for a rule (the DESIGN.md §9 text), or empty
/// if the name is unknown. Drives the CLI's --explain flag.
[[nodiscard]] std::string_view rule_explanation(std::string_view rule);

/// Lint one translation unit with the per-TU rules only. `path` must be
/// repo-relative with forward slashes (e.g. "src/netbase/wire.hpp"); rules
/// key off the path to decide module membership and allowlists. The
/// cross-TU rules (hot-path, determinism-taint, unreached) need the whole
/// program and only run under lint_files/lint_tree.
[[nodiscard]] std::vector<Finding> lint_source(std::string_view path,
                                               std::string_view source,
                                               const Options& options = {});

/// Whole-program lint: per-TU rules on every file plus the cross-TU
/// call-graph rules over the src/ subset (unreached: over all files).
/// Findings are sorted by (file, line, rule, message); inline suppressions
/// apply to both layers.
[[nodiscard]] std::vector<Finding> lint_files(const std::vector<SourceFile>& files,
                                              const Options& options = {},
                                              ProgramStats* stats = nullptr);

/// Recursively lint every .hpp/.cpp under root/<dir> for each dir, sorted
/// for deterministic output. tests/lint/fixtures is skipped — its snippets
/// violate rules on purpose. I/O failures append to *io_errors.
[[nodiscard]] std::vector<Finding> lint_tree(const std::string& root,
                                             const std::vector<std::string>& dirs,
                                             const Options& options,
                                             std::vector<std::string>* io_errors,
                                             ProgramStats* stats = nullptr);

[[nodiscard]] std::string format_text(const Finding& finding);
[[nodiscard]] std::string format_json(const std::vector<Finding>& findings);

/// SARIF 2.1.0 log for GitHub code scanning: one run, one result per
/// finding (level "error", repo-relative uri under %SRCROOT%), with every
/// registered rule and its --explain text in the tool.driver.rules table.
[[nodiscard]] std::string format_sarif(const std::vector<Finding>& findings);

}  // namespace iwscan::lint
