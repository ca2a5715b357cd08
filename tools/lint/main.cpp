// iwlint CLI. Exit codes: 0 = clean, 1 = findings, 2 = usage/I-O error.
//
//   iwlint [--root <dir>] [--json] [--sarif <path>]
//          [--disable <rule>[,<rule>...]] [--only <rule>[,<rule>...]]
//          [--explain <rule>] [paths...]
//
// Paths default to the directories the repo lints in CI: src tests bench
// examples tools. Run from the repo root, or point --root at it.
//
// --json emits an object: schema_version, the findings array, the
// call-graph, unreached and dataflow stats, and the whole-tree wall time
// ("elapsed_ms") — CI's bench guard keys off the latter to keep the
// cross-TU analysis under its two-second budget.
//
// --sarif writes a SARIF 2.1.0 log to <path> (always, even when clean) so
// CI can upload findings as GitHub code-scanning annotations.
//
// --only inverts --disable: run just the listed rules. CI's self-lint
// step uses it to hold tools/ and examples/ to the relaxed profile
// (layering + banned-call + header-hygiene). Suppression hygiene is
// always checked.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "callgraph.hpp"
#include "iwlint.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: iwlint [--root <dir>] [--json] [--sarif <path>] "
               "[--disable <rule>[,...]] [--only <rule>[,...]] "
               "[--explain <rule>] [paths...]\n\nrules:\n");
  for (const auto& name : iwscan::lint::rule_names()) {
    std::fprintf(out, "  %s\n", name.c_str());
  }
  std::fprintf(out,
               "\nsuppress a finding inline with a mandatory justification:\n"
               "  // iwlint: allow(<rule>) -- <reason>\n");
}

void split_rules(std::string_view list, std::vector<std::string>& out) {
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view name = list.substr(0, comma);
    if (!name.empty()) out.emplace_back(name);
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
}

int explain(std::string_view rule) {
  const std::string_view text = iwscan::lint::rule_explanation(rule);
  if (text.empty()) {
    std::fprintf(stderr, "iwlint: unknown rule '%.*s'\n",
                 static_cast<int>(rule.size()), rule.data());
    return 2;
  }
  std::fprintf(stdout, "%.*s: %.*s\n", static_cast<int>(rule.size()), rule.data(),
               static_cast<int>(text.size()), text.data());
  return 0;
}

bool known_rule(const std::string& rule) {
  const auto& known = iwscan::lint::rule_names();
  return std::find(known.begin(), known.end(), rule) != known.end();
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool json = false;
  std::string sarif_path;
  iwscan::lint::Options options;
  std::vector<std::string> only;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--json") {
      json = true;
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg.substr(0, 7) == "--root=") {
      root = std::string(arg.substr(7));
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg.substr(0, 8) == "--sarif=") {
      sarif_path = std::string(arg.substr(8));
    } else if (arg == "--disable" && i + 1 < argc) {
      split_rules(argv[++i], options.disabled_rules);
    } else if (arg.substr(0, 10) == "--disable=") {
      split_rules(arg.substr(10), options.disabled_rules);
    } else if (arg == "--only" && i + 1 < argc) {
      split_rules(argv[++i], only);
    } else if (arg.substr(0, 7) == "--only=") {
      split_rules(arg.substr(7), only);
    } else if (arg == "--explain" && i + 1 < argc) {
      return explain(argv[++i]);
    } else if (arg.substr(0, 10) == "--explain=") {
      return explain(arg.substr(10));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "iwlint: unknown option '%s'\n", argv[i]);
      usage(stderr);
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  for (const auto& rule : options.disabled_rules) {
    if (!known_rule(rule)) {
      std::fprintf(stderr, "iwlint: unknown rule '%s' in --disable\n", rule.c_str());
      return 2;
    }
  }
  for (const auto& rule : only) {
    if (!known_rule(rule)) {
      std::fprintf(stderr, "iwlint: unknown rule '%s' in --only\n", rule.c_str());
      return 2;
    }
  }
  if (!only.empty()) {
    // --only = disable the complement. Suppression hygiene stays on: a
    // malformed or unjustified suppression is a finding in any profile.
    for (const auto& rule : iwscan::lint::rule_names()) {
      if (rule == "suppression") continue;
      if (std::find(only.begin(), only.end(), rule) == only.end()) {
        options.disabled_rules.push_back(rule);
      }
    }
  }
  if (paths.empty()) paths = {"src", "tests", "bench", "examples", "tools"};

  // The linter itself is a reporting tool, not scan logic: timing its own
  // run with the wall clock is the point of the bench guard.
  // iwlint: allow(determinism) -- self-timing for the --json bench guard; iwlint is tooling, not scan logic
  const auto started = std::chrono::steady_clock::now();

  std::vector<std::string> io_errors;
  iwscan::lint::ProgramStats stats;
  const auto findings =
      iwscan::lint::lint_tree(root, paths, options, &io_errors, &stats);

  // iwlint: allow(determinism) -- self-timing for the --json bench guard; iwlint is tooling, not scan logic
  const auto elapsed = std::chrono::steady_clock::now() - started;
  const long long elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();

  for (const auto& error : io_errors) {
    std::fprintf(stderr, "iwlint: %s\n", error.c_str());
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "iwlint: cannot write %s\n", sarif_path.c_str());
      return 2;
    }
    out << iwscan::lint::format_sarif(findings);
  }

  if (json) {
    std::fputs("{\n\"schema_version\": 2,\n\"findings\": ", stdout);
    std::fputs(iwscan::lint::format_json(findings).c_str(), stdout);
    std::fprintf(stdout,
                 ",\n\"files\": %zu,\n\"functions\": %zu,\n\"call_edges\": %zu,"
                 "\n\"hot_roots\": %zu,\n\"taint_roots\": %zu,"
                 "\n\"unreached_roots\": %zu,\n\"unreached_seams\": %zu,"
                 "\n\"dataflow\": {\"functions\": %zu, \"taint_sources\": %zu, "
                 "\"taint_sinks\": %zu, \"taint_guards\": %zu},"
                 "\n\"elapsed_ms\": %lld\n}\n",
                 stats.files, stats.functions, stats.call_edges, stats.hot_roots,
                 stats.taint_roots, stats.unreached_roots, stats.unreached_seams,
                 stats.dataflow.functions,
                 stats.dataflow.taint_sources, stats.dataflow.taint_sinks,
                 stats.dataflow.taint_guards, elapsed_ms);
  } else {
    for (const auto& finding : findings) {
      std::fprintf(stdout, "%s\n", iwscan::lint::format_text(finding).c_str());
    }
    if (!findings.empty()) {
      std::fprintf(stdout, "iwlint: %zu finding%s\n", findings.size(),
                   findings.size() == 1 ? "" : "s");
    }
  }
  if (!io_errors.empty()) return 2;
  return findings.empty() ? 0 : 1;
}
