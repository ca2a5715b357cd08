#include "iwlint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "callgraph.hpp"
#include "dataflow.hpp"
#include "symbols.hpp"
#include "tokens.hpp"

namespace iwscan::lint {
namespace {

// ---------------------------------------------------------------------------
// Module registry: the DAG from DESIGN.md §3.
//   util → netbase → netsim → tcpstack → {httpd, tls} → scanner → core →
//   inetmodel → analysis
// `deps` lists every module a file in `dir` may include (its own module is
// always allowed). scanner deliberately omits the protocol layers: the
// ZMap-style engine must stay swappable against real probe modules.
// ---------------------------------------------------------------------------

struct ModuleSpec {
  std::string_view dir;  // directory under src/
  std::string_view ns;   // required namespace: iwscan::<ns>
  std::vector<std::string_view> deps;
};

const std::vector<ModuleSpec>& modules() {
  static const std::vector<ModuleSpec> specs = {
      {"util", "util", {}},
      {"netbase", "net", {"util"}},
      {"netsim", "sim", {"util", "netbase"}},
      {"tcpstack", "tcp", {"util", "netbase", "netsim"}},
      {"httpd", "http", {"util", "netbase", "netsim", "tcpstack"}},
      {"tls", "tls", {"util", "netbase", "netsim", "tcpstack"}},
      {"scanner", "scan", {"util", "netbase", "netsim"}},
      {"core", "core",
       {"util", "netbase", "netsim", "tcpstack", "httpd", "tls", "scanner"}},
      {"store", "store", {"util", "netbase", "core"}},
      {"inetmodel", "model", {"util", "netbase", "netsim", "tcpstack", "httpd", "tls"}},
      {"exec", "exec",
       {"util", "netbase", "netsim", "tcpstack", "httpd", "tls", "scanner", "core",
        "inetmodel", "store"}},
      {"analysis", "analysis",
       {"util", "netbase", "netsim", "tcpstack", "httpd", "tls", "scanner", "core",
        "inetmodel", "store", "exec"}},
  };
  return specs;
}

const ModuleSpec* find_module(std::string_view dir) {
  for (const auto& spec : modules()) {
    if (spec.dir == dir) return &spec;
  }
  return nullptr;
}

// Wire enums whose switches must stay default-free so a newly registered
// value is a compile-time (-Wswitch) event, not a silent fall-through.
// Matched against qualified case labels (`tls::HandshakeType::ClientHello`
// contains "HandshakeType"; `http::RequestStatus::Complete` contains
// "RequestStatus").
constexpr std::array<std::string_view, 6> kWireEnums = {
    "ContentType",      // TLS record types (tls/records.hpp)
    "HandshakeType",    // TLS handshake types (tls/handshake.hpp)
    "AlertLevel",       // TLS alerts (tls/records.hpp)
    "AlertDescription", // TLS alerts (tls/records.hpp)
    "IcmpType",         // ICMP message types (netbase/headers.hpp)
    "RequestStatus",    // HTTP request framing states (httpd/http_message.hpp)
};

// TCP option kinds are plain constants, not an enum class; a switch whose
// case labels use any of these is a wire-kind dispatch all the same.
constexpr std::array<std::string_view, 3> kTcpOptionKinds = {
    "kMss", "kWindowScale", "kSackPermitted"};

struct BannedCall {
  std::string_view name;
  std::string_view message;
  std::vector<std::string_view> allowed_paths;
};

const std::vector<BannedCall>& banned_calls() {
  static const std::vector<BannedCall> calls = {
      {"memcpy",
       "raw memcpy bypasses the byte/text bridge; use std::copy/std::ranges::copy "
       "or the helpers in util/bytes.hpp",
       {"src/util/bytes.hpp"}},
      {"sprintf", "unbounded sprintf; use std::snprintf or util/strings.hpp", {}},
      {"atoi", "atoi has no error reporting; use std::from_chars", {}},
      {"strtol", "strtol error handling is errno-based; use std::from_chars", {}},
      {"rand",
       "rand() breaks seeded determinism; draw from an explicitly seeded "
       "util::Rng",
       {}},
      {"time",
       "wall-clock time breaks replayable scans; use the event loop's virtual "
       "now()",
       {}},
      {"assert",
       "assert() vanishes under NDEBUG; use IWSCAN_ASSERT/IWSCAN_UNREACHABLE "
       "from util/check.hpp",
       {}},
      // The malloc family bypasses operator new, which the allocation-
      // counting perf hook replaces; untracked raw allocations would make
      // the steady-state allocation budgets lie. alloc_stats.hpp itself is
      // the hook: its replacement operator new must bottom out in malloc
      // (not new) so sanitizer interceptors still see every allocation.
      {"malloc", "raw malloc evades the allocation-counting hook; use new or "
                 "standard containers", {"src/util/alloc_stats.hpp"}},
      {"calloc", "raw calloc evades the allocation-counting hook; use new or "
                 "standard containers", {"src/util/alloc_stats.hpp"}},
      {"realloc", "raw realloc evades the allocation-counting hook; use "
                  "standard containers", {"src/util/alloc_stats.hpp"}},
      {"aligned_alloc", "raw aligned_alloc evades the allocation-counting "
                        "hook; use aligned operator new", {"src/util/alloc_stats.hpp"}},
      {"free", "raw free pairs with raw malloc; both are reserved for the "
               "allocation-counting hook", {"src/util/alloc_stats.hpp"}},
  };
  return calls;
}

// std::random_device / srand / *_clock::now undermine the bit-reproducible
// permutation sweeps and fuzz corpora; only the seeded RNG implementation
// and the simulator's virtual-time internals may touch entropy or clocks.
// util/stopwatch.cpp wraps the wall clock for *benchmark reporting only*
// (bench/ wall-clock rows); scan logic — including every worker in
// src/exec/ — stays on virtual time and is deliberately NOT allowlisted.
// The determinism-taint rule is the cross-TU sharpening of this: inside
// the allowlisted prefixes it still flags sources that are *reachable
// from the scan roots* unless they sit in the two quarantine files.
constexpr std::array<std::string_view, 3> kDeterminismAllowedPrefixes = {
    "src/util/rng.cpp", "src/util/stopwatch.cpp", "src/netsim/"};

constexpr std::array<std::string_view, 3> kBannedClocks = {
    "steady_clock", "system_clock", "high_resolution_clock"};

// ---------------------------------------------------------------------------
// Suppressions: a comment holding the iwlint marker followed by
// "allow(rule-one, rule-two) -- justification".
// ---------------------------------------------------------------------------

struct Suppressions {
  // rule -> set of lines on which findings of that rule are allowed
  std::map<std::string_view, std::set<int>, std::less<>> allowed;

  [[nodiscard]] bool covers(const Finding& finding) const {
    const auto it = allowed.find(finding.rule);
    return it != allowed.end() && it->second.count(finding.line) != 0;
  }
};

bool is_known_rule(std::string_view name) {
  const auto& names = rule_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0)
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0)
    s.remove_suffix(1);
  return s;
}

/// Line ranges of the token-level "statements" in a file, delimited by
/// ';'/'{'/'}'. A suppression anywhere inside a multi-line statement (a
/// wrapped call, a condition split across lines) covers the whole span, so
/// the comment can sit on the readable line instead of whichever line the
/// rule happens to report.
std::vector<std::pair<int, int>> statement_spans(const ScanResult& scan) {
  std::vector<std::pair<int, int>> spans;
  int start = -1;
  int end = -1;
  for (const auto& tok : scan.tokens) {
    if (start < 0) start = tok.line;
    end = tok.line;
    if (tok.kind == TokKind::Punct &&
        (tok.text == ";" || tok.text == "{" || tok.text == "}")) {
      spans.emplace_back(start, end);
      start = -1;
    }
  }
  if (start >= 0) spans.emplace_back(start, end);
  return spans;
}

Suppressions collect_suppressions(const ScanResult& scan,
                                  std::vector<Finding>& findings,
                                  std::string_view path) {
  Suppressions out;
  const std::vector<std::pair<int, int>> spans = statement_spans(scan);
  constexpr std::string_view kMarker = "iwlint: allow(";
  for (const auto& comment : scan.comments) {
    const std::size_t at = comment.text.find(kMarker);
    if (at == std::string_view::npos) continue;
    const std::size_t list_start = at + kMarker.size();
    const std::size_t close = comment.text.find(')', list_start);
    if (close == std::string_view::npos) {
      findings.push_back({std::string(path), comment.line, "suppression",
                          "malformed suppression: missing ')'"});
      continue;
    }

    // A trailing-comment suppression covers its own line; a comment-only
    // line covers the next line that holds code.
    int effective_line = comment.line;
    if (scan.code_lines.count(comment.line) == 0) {
      const auto next = scan.code_lines.upper_bound(comment.line);
      if (next != scan.code_lines.end()) effective_line = *next;
    }

    // ... and the full extent of any multi-line statement it lands in.
    std::set<int> lines = {effective_line};
    for (const auto& [lo, hi] : spans) {
      if (lo <= effective_line && effective_line <= hi) {
        for (int l = lo; l <= hi; ++l) lines.insert(l);
      }
    }

    // The justification is mandatory: "-- <non-empty reason>" after ')'.
    const std::string_view tail = trim(comment.text.substr(close + 1));
    const bool justified = tail.size() > 2 && tail.substr(0, 2) == "--" &&
                           !trim(tail.substr(2)).empty();
    if (!justified) {
      findings.push_back(
          {std::string(path), comment.line, "suppression",
           "suppression requires a justification: // iwlint: allow(<rule>) -- "
           "<reason>"});
      continue;  // an unjustified suppression suppresses nothing
    }

    std::string_view list = comment.text.substr(list_start, close - list_start);
    while (!list.empty()) {
      const std::size_t comma = list.find(',');
      const std::string_view name = trim(list.substr(0, comma));
      list = (comma == std::string_view::npos) ? std::string_view{}
                                               : list.substr(comma + 1);
      if (name.empty()) continue;
      if (!is_known_rule(name) || name == "suppression") {
        findings.push_back({std::string(path), comment.line, "suppression",
                            "unknown rule '" + std::string(name) + "' in suppression"});
        continue;
      }
      // Point the suppression at the rule registry's copy of the name so the
      // string_view outlives this comment's buffer trivially.
      const auto& names = rule_names();
      const auto it = std::find(names.begin(), names.end(), name);
      out.allowed[*it].insert(lines.begin(), lines.end());
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

struct FileClass {
  const ModuleSpec* module = nullptr;  // set for src/<module>/ files
  bool src_root = false;               // file directly under src/ (umbrella)
  bool header = false;
  std::string_view basename;
};

FileClass classify(std::string_view path) {
  FileClass fc;
  const std::size_t slash = path.rfind('/');
  fc.basename = (slash == std::string_view::npos) ? path : path.substr(slash + 1);
  fc.header = path.size() >= 4 && path.substr(path.size() - 4) == ".hpp";
  if (path.substr(0, 4) == "src/") {
    const std::string_view rest = path.substr(4);
    const std::size_t sep = rest.find('/');
    if (sep == std::string_view::npos) {
      fc.src_root = true;
    } else {
      fc.module = find_module(rest.substr(0, sep));
    }
  }
  return fc;
}

// ---------------------------------------------------------------------------
// Per-TU rules
// ---------------------------------------------------------------------------

struct RuleContext {
  std::string_view path;
  const FileClass& file;
  const ScanResult& scan;
  std::vector<Finding>& findings;

  void add(int line, std::string_view rule, std::string message) const {
    findings.push_back({std::string(path), line, std::string(rule), std::move(message)});
  }
};

// Rule: layering — every project include must respect the module DAG.
void rule_layering(const RuleContext& ctx) {
  // tests/, bench/, examples/ and tools/ sit on top of the whole tree.
  if (ctx.file.module == nullptr && !ctx.file.src_root) return;

  for (const auto& inc : ctx.scan.includes) {
    const std::size_t sep = inc.target.find('/');
    const ModuleSpec* target =
        (sep == std::string_view::npos) ? nullptr : find_module(inc.target.substr(0, sep));
    if (inc.angled) {
      if (target == nullptr) continue;  // system/library header
      ctx.add(inc.line, "layering",
              "project header <" + std::string(inc.target) +
                  "> must be included with quotes");
      continue;
    }
    if (target == nullptr) {
      ctx.add(inc.line, "layering",
              "quoted include \"" + std::string(inc.target) +
                  "\" does not name a module header (expected <module>/<file>.hpp)");
      continue;
    }
    if (ctx.file.src_root) continue;  // the umbrella header sees everything
    const ModuleSpec& self = *ctx.file.module;
    if (target->dir == self.dir) continue;
    if (std::find(self.deps.begin(), self.deps.end(), target->dir) != self.deps.end())
      continue;
    ctx.add(inc.line, "layering",
            "module '" + std::string(self.dir) + "' may not include '" +
                std::string(inc.target) + "': src/" + std::string(self.dir) +
                " sits below src/" + std::string(target->dir) +
                " in the module DAG (DESIGN.md §3)");
  }
}

// Rule: byte-bridge — reinterpret_cast / C-style pointer casts live only in
// src/util/bytes.hpp, the one audited byte↔text crossing.
void rule_byte_bridge(const RuleContext& ctx) {
  if (ctx.path == "src/util/bytes.hpp") return;
  const auto& toks = ctx.scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == TokKind::Ident && toks[i].text == "reinterpret_cast") {
      ctx.add(toks[i].line, "byte-bridge",
              "reinterpret_cast outside util/bytes.hpp; use util::as_text / "
              "util::as_bytes");
      continue;
    }
    // C-style pointer cast: '(' type-tokens '*' ')' <operand>. The operand
    // requirement keeps unnamed pointer parameters `f(const char*)` and
    // `sizeof(int*)` out of the match.
    if (toks[i].kind != TokKind::Punct || toks[i].text != "(") continue;
    std::size_t j = i + 1;
    bool saw_ident = false;
    while (j < toks.size() &&
           (toks[j].kind == TokKind::Ident || toks[j].text == "::")) {
      saw_ident = saw_ident || toks[j].kind == TokKind::Ident;
      ++j;
    }
    bool saw_star = false;
    while (j < toks.size() && toks[j].text == "*") {
      saw_star = true;
      ++j;
    }
    if (!saw_ident || !saw_star) continue;
    if (j >= toks.size() || toks[j].text != ")") continue;
    if (j + 1 >= toks.size()) continue;
    const Token& next = toks[j + 1];
    const bool operand_like =
        next.kind == TokKind::Number || next.kind == TokKind::Str ||
        next.kind == TokKind::CharLit || next.text == "(" || next.text == "&" ||
        next.text == "*" ||
        (next.kind == TokKind::Ident && next.text != "noexcept" &&
         next.text != "const" && next.text != "override" && next.text != "final" &&
         next.text != "requires");
    if (operand_like) {
      ctx.add(toks[i].line, "byte-bridge",
              "C-style pointer cast outside util/bytes.hpp; use util::as_text / "
              "util::as_bytes or static_cast");
    }
  }
}

// Rule: banned-call — libc calls that break determinism, safety, or the
// check.hpp discipline.
void rule_banned_call(const RuleContext& ctx) {
  const auto& toks = ctx.scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident || toks[i + 1].text != "(") continue;
    const BannedCall* banned = nullptr;
    for (const auto& call : banned_calls()) {
      if (call.name == toks[i].text) {
        banned = &call;
        break;
      }
    }
    if (banned == nullptr) continue;
    if (i > 0) {
      const Token& prev = toks[i - 1];
      if (prev.text == "." || prev.text == "->") continue;  // member access
      if (prev.text == "::" && i > 1 && toks[i - 2].kind == TokKind::Ident &&
          toks[i - 2].text != "std") {
        continue;  // qualified call into some namespace other than std
      }
      // `long time(...)` is a declaration whose name merely collides; a call
      // site is preceded by punctuation or an expression keyword.
      if (prev.kind == TokKind::Ident && prev.text != "return" &&
          prev.text != "case" && prev.text != "throw" && prev.text != "else" &&
          prev.text != "do" && prev.text != "co_return" && prev.text != "co_yield") {
        continue;
      }
    }
    if (std::find(banned->allowed_paths.begin(), banned->allowed_paths.end(),
                  ctx.path) != banned->allowed_paths.end()) {
      continue;
    }
    ctx.add(toks[i].line, "banned-call",
            std::string(toks[i].text) + "(): " + std::string(banned->message));
  }
}

// Rule: wire-enum-default — a default: in a switch over a registered wire
// enum hides newly registered values from -Wswitch.
void rule_wire_enum_default(const RuleContext& ctx) {
  const auto& toks = ctx.scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident || toks[i].text != "switch") continue;
    // Skip the condition '(...)'.
    std::size_t j = i + 1;
    if (j >= toks.size() || toks[j].text != "(") continue;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) break;
    }
    // Find the body '{...}' and scan its depth-1 labels.
    while (++j < toks.size() && toks[j].text != "{") {
    }
    if (j >= toks.size()) continue;
    depth = 0;
    bool wire = false;
    std::optional<std::size_t> default_at;
    std::string_view matched_enum;
    for (; j < toks.size(); ++j) {
      if (toks[j].text == "{") ++depth;
      if (toks[j].text == "}" && --depth == 0) break;
      if (depth != 1 || toks[j].kind != TokKind::Ident) continue;
      if (toks[j].text == "default") {
        if (!default_at) default_at = j;
      } else if (toks[j].text == "case") {
        for (std::size_t k = j + 1; k < toks.size() && toks[k].text != ":"; ++k) {
          if (toks[k].kind != TokKind::Ident) continue;
          const bool is_enum = std::find(kWireEnums.begin(), kWireEnums.end(),
                                         toks[k].text) != kWireEnums.end();
          const bool is_kind =
              std::find(kTcpOptionKinds.begin(), kTcpOptionKinds.end(),
                        toks[k].text) != kTcpOptionKinds.end();
          if (is_enum || is_kind) {
            wire = true;
            matched_enum = is_enum ? toks[k].text : std::string_view("TCP option kind");
          }
        }
      }
    }
    if (wire && default_at) {
      ctx.add(toks[*default_at].line, "wire-enum-default",
              "switch over wire enum (" + std::string(matched_enum) +
                  ") must not have a default:; enumerate values so -Wswitch "
                  "surfaces newly registered ones");
    }
  }
}

// Rule: header-hygiene — #pragma once first, snake_case names, and the
// module's iwscan::<ns> namespace.
void rule_header_hygiene(const RuleContext& ctx) {
  const std::string_view name = ctx.file.basename;
  const std::size_t dot = name.rfind('.');
  const std::string_view stem = name.substr(0, dot);
  const bool stem_ok =
      !stem.empty() &&
      std::all_of(stem.begin(), stem.end(), [](char c) {
        return (std::islower(static_cast<unsigned char>(c)) != 0) ||
               (std::isdigit(static_cast<unsigned char>(c)) != 0) || c == '_';
      });
  if (!stem_ok) {
    ctx.add(1, "header-hygiene",
            "file name '" + std::string(name) + "' is not lower_snake_case");
  }
  if (!ctx.file.header) return;

  if (!ctx.scan.first_code_is_pragma_once) {
    ctx.add(ctx.scan.first_code_line > 0 ? ctx.scan.first_code_line : 1,
            "header-hygiene", "header must open with #pragma once");
  }

  if (ctx.file.module == nullptr) return;  // namespace rule is for src modules
  const std::string_view expected = ctx.file.module->ns;
  const auto& toks = ctx.scan.tokens;
  bool found = false;
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].text != "namespace" || toks[i + 1].text != "iwscan" ||
        toks[i + 2].text != "::") {
      continue;
    }
    if (toks[i + 3].text == expected) {
      found = true;
    } else {
      ctx.add(toks[i].line, "header-hygiene",
              "namespace iwscan::" + std::string(toks[i + 3].text) +
                  " does not match module '" + std::string(ctx.file.module->dir) +
                  "' (expected iwscan::" + std::string(expected) + ")");
    }
  }
  if (!found) {
    ctx.add(ctx.scan.first_code_line > 0 ? ctx.scan.first_code_line : 1,
            "header-hygiene",
            "header declares no namespace iwscan::" + std::string(expected));
  }
}

// Rule: determinism — entropy and wall clocks only inside the seeded RNG
// implementation and the simulator.
void rule_determinism(const RuleContext& ctx) {
  for (const auto& prefix : kDeterminismAllowedPrefixes) {
    if (ctx.path.substr(0, prefix.size()) == prefix) return;
  }
  const auto& toks = ctx.scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::Ident) continue;
    if (toks[i].text == "random_device") {
      ctx.add(toks[i].line, "determinism",
              "std::random_device is non-reproducible; seed a util::Rng explicitly");
    } else if (toks[i].text == "srand") {
      ctx.add(toks[i].line, "determinism",
              "srand() seeds global hidden state; use util::Rng");
    } else if (std::find(kBannedClocks.begin(), kBannedClocks.end(), toks[i].text) !=
                   kBannedClocks.end() &&
               i + 2 < toks.size() && toks[i + 1].text == "::" &&
               toks[i + 2].text == "now") {
      ctx.add(toks[i].line, "determinism",
              std::string(toks[i].text) +
                  "::now() reads the wall clock; use the event loop's virtual now()");
    }
  }
}

void apply_rules(const RuleContext& ctx) {
  rule_layering(ctx);
  rule_byte_bridge(ctx);
  rule_banned_call(ctx);
  rule_wire_enum_default(ctx);
  rule_header_hygiene(ctx);
  rule_determinism(ctx);
}

bool rule_disabled(const Options& options, std::string_view rule) {
  return std::find(options.disabled_rules.begin(), options.disabled_rules.end(),
                   rule) != options.disabled_rules.end();
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<std::string>& rule_names() {
  static const std::vector<std::string> names = {
      "layering",      "byte-bridge",    "banned-call", "wire-enum-default",
      "header-hygiene", "determinism",   "hot-path",    "determinism-taint",
      "wire-taint",    "concurrency-confinement", "unreached",
      "suppression",
  };
  return names;
}

std::string_view rule_explanation(std::string_view rule) {
  // One paragraph per rule — the DESIGN.md §9 rationale, verbatim enough
  // that --explain answers "why is this a finding" without opening the doc.
  if (rule == "layering") {
    return "Every project include must follow the module DAG of DESIGN.md §3 "
           "(util → netbase → netsim → tcpstack → {httpd, tls} → scanner → "
           "core → inetmodel → exec → analysis). The DAG is what keeps the "
           "ZMap-style scanner engine swappable and the protocol stacks "
           "testable in isolation; one convenience include collapses it.";
  }
  if (rule == "byte-bridge") {
    return "reinterpret_cast and C-style pointer casts appear only in "
           "src/util/bytes.hpp, the single audited byte-to-text crossing. "
           "Concentrating the casts in one reviewed file is what makes the "
           "\"no aliasing surprises anywhere else\" claim checkable.";
  }
  if (rule == "banned-call") {
    return "A short list of libc calls is banned tree-wide: memcpy (bypasses "
           "the byte bridge), sprintf/atoi/strtol (unsafe or errno-based), "
           "rand/time (break seeded determinism), assert (vanishes under "
           "NDEBUG; use IWSCAN_ASSERT), and the malloc family (evades the "
           "allocation-counting operator-new hook).";
  }
  if (rule == "wire-enum-default") {
    return "Switches over registered wire enums (TLS record and handshake "
           "types, ICMP types, HTTP parser states, TCP option kinds) must "
           "not carry a default: label. Enumerating every value keeps "
           "-Wswitch as the registration check: adding a wire value without "
           "handling it everywhere is a compile error, not a silent "
           "fall-through.";
  }
  if (rule == "header-hygiene") {
    return "Headers open with #pragma once, file names are lower_snake_case, "
           "and every src/<module> header declares the module's "
           "iwscan::<ns> namespace. Mechanical, but it keeps the module "
           "registry in iwlint authoritative: the namespace is how a reader "
           "(and the linter) maps a file to its layer.";
  }
  if (rule == "determinism") {
    return "std::random_device, srand, and *_clock::now() are per-TU banned "
           "outside src/util/rng.cpp, src/util/stopwatch.cpp, and "
           "src/netsim/. Scans must replay bit-identically from a seed; "
           "entropy and wall clocks are wrapped once, behind util::Rng and "
           "the event loop's virtual now().";
  }
  if (rule == "hot-path") {
    return "Cross-TU reachability rule. Functions marked IWSCAN_HOT are the "
           "roots of the per-packet datapath (event-loop dispatch, fabric "
           "send/deliver, TCP transmit, scanner rx, checksum folding, and "
           "the spill datapath's per-record SpillWriter::append / "
           "SegmentReader::next). "
           "Nothing transitively reachable from a root may allocate "
           "(new/make_unique/malloc), grow containers (push_back and "
           "friends), take locks, block, throw, or touch iostreams — the "
           "static complement of the runtime allocs-per-packet budget. "
           "IWSCAN_HOT_BOUNDARY marks audited hand-off points (virtual "
           "per-packet entry points like Endpoint::handle_packet, and "
           "SpillWriter::flush_segment, which amortizes its sort + CRC + "
           "write over a whole segment) where the traversal stops; "
           "[[noreturn]] failure paths are exempt. Call "
           "edges resolve by unqualified callee name, deliberately "
           "over-approximate: overload sets, virtual dispatch, and member "
           "calls through any object all count. Blind spots: implicit "
           "constructor/destructor/operator calls, calls through function "
           "pointers/std::function/util::InlineFn, and macro bodies.";
  }
  if (rule == "determinism-taint") {
    return "Cross-TU reachability rule generalizing 'determinism' from a "
           "file allowlist to the call graph: no entropy source "
           "(std::random_device, srand, rand) or wall-clock read "
           "(*_clock::now, time, clock_gettime, gettimeofday) may be "
           "reachable from the scan roots — run_iw_scan and "
           "exec::run_scan — except inside the quarantined sinks "
           "src/util/rng.cpp and src/util/stopwatch.cpp. The per-TU rule "
           "allowlists all of src/netsim/, so a clock read there passes "
           "per-TU review; this rule still flags it the moment it becomes "
           "reachable from a scan, which is exactly the regression that "
           "would silently break replayable sweeps. Boundaries do not stop "
           "this traversal: determinism must hold through every layer.";
  }
  if (rule == "wire-taint") {
    return "Intra-procedural dataflow rule. Values read off the wire — "
           "WireReader::u8/u16/u24/u32, subscript reads from byte-span "
           "parameters (std::span<const std::uint8_t>, net::PacketView, "
           "net::Bytes), and decoded header length/offset fields "
           "(total_length, fragment_offset, data_offset, urgent, "
           "seq_or_mtu, id_or_unused) — are tainted. Taint propagates "
           "through local assignments and arithmetic, statement by "
           "statement, and may not reach a container resize/reserve, a "
           "subscript index, a span subspan/first/last, a loop bound, or a "
           "WireWriter patch offset until a sanitizing guard intervenes: "
           "WireReader::require(), a conditional comparing the value "
           "against size()/remaining()/sizeof/a constant, or a "
           "std::min/std::clamp. Findings print the def→use chain. The "
           "pass is one linear forward walk per function: no fixpoint over "
           "loop back-edges, no branch-path sensitivity, no aliasing, and "
           "no inter-procedural flow (out-parameters come back clean) — "
           "blind spots documented in DESIGN.md §9.";
  }
  if (rule == "concurrency-confinement") {
    return "Threading discipline, statically enforced. Thread creation "
           "(std::thread/std::jthread/pthread_create) is confined to "
           "src/exec/thread_pool.*; synchronization primitives "
           "(std::mutex and variants, std::atomic, condition variables, "
           "lock types, thread_local) are confined to src/exec/; "
           "std::future/promise/async/latch/barrier/semaphores are banned "
           "everywhere because exec::BoundedChannel is the only audited "
           "cross-thread hand-off type; and mutable namespace-scope state "
           "is banned tree-wide — shared globals are invisible cross-shard "
           "coupling that would break the byte-identical sharded-merge "
           "guarantee. const/constexpr globals are exempt; justified "
           "suppressions cover the audited exceptions (the allocation "
           "counter in util/alloc_stats.hpp).";
  }
  if (rule == "unreached") {
    return "Whole-program reachability rule. Its roots are every main in "
           "bench/, examples/ and tools/; it reports each function defined "
           "in src/ that no root reaches, and says whether tests reach it. "
           "A function only tests reach is either a test seam that pins an "
           "invariant, kept with a justified allow(unreached), or dead code "
           "to delete. Any use of a name is a reference, not just a call: a "
           "function passed as a value, named in a namespace- or class-scope "
           "initializer (repro's experiment table), or used in a macro body "
           "(check_fail behind IWSCAN_ASSERT) is reached, and so is every "
           "name in a brace block the index cannot attribute to a function "
           "(operator bodies). Constructors, destructors and conversion "
           "operators are exempt. References resolve by bare name, so reach "
           "over-approximates: a name collision can hide dead code, but live "
           "code is never reported dead. Files outside src/ join only as "
           "callers; the hot-path and determinism-taint graphs never see "
           "them. The rule stays silent unless the linted set holds all "
           "three root directories.";
  }
  if (rule == "suppression") {
    return "Findings are silenced inline with the iwlint marker comment "
           "followed by 'allow(<rule>) -- <reason>'. The justification is "
           "mandatory and must be non-empty; an unjustified suppression "
           "suppresses nothing and is itself a finding, so CI fails on it. "
           "A trailing comment covers its own line (and the whole statement "
           "if it spans several lines); a standalone comment covers the "
           "next code line.";
  }
  return {};
}

std::vector<Finding> lint_source(std::string_view path, std::string_view source,
                                 const Options& options) {
  std::vector<SourceFile> one;
  one.push_back({std::string(path), std::string(source)});
  // Per-TU only: without the rest of the program the call-graph rules have
  // no roots to traverse from, so this stays the single-file entry point.
  Options per_tu = options;
  per_tu.disabled_rules.emplace_back("hot-path");
  per_tu.disabled_rules.emplace_back("determinism-taint");
  per_tu.disabled_rules.emplace_back("unreached");
  return lint_files(one, per_tu, nullptr);
}

std::vector<Finding> lint_files(const std::vector<SourceFile>& files,
                                const Options& options, ProgramStats* stats) {
  std::vector<Finding> kept;
  std::map<std::string_view, Suppressions> suppressions_by_file;

  // Tokenize once: the per-TU rules, the symbol index, and both
  // whole-program passes all pattern-match the same scan.
  std::vector<ScanResult> scans;
  scans.reserve(files.size());
  for (const auto& file : files) scans.push_back(tokenize(file.content));

  for (std::size_t f = 0; f < files.size(); ++f) {
    const SourceFile& file = files[f];
    const ScanResult& scan = scans[f];
    const FileClass fc = classify(file.path);

    std::vector<Finding> findings;
    Suppressions suppressions = collect_suppressions(scan, findings, file.path);
    const RuleContext ctx{file.path, fc, scan, findings};
    apply_rules(ctx);

    for (auto& finding : findings) {
      if (suppressions.covers(finding)) continue;
      if (rule_disabled(options, finding.rule)) continue;
      kept.push_back(std::move(finding));
    }
    suppressions_by_file.emplace(file.path, std::move(suppressions));
  }

  const bool want_dataflow = !rule_disabled(options, "wire-taint") ||
                             !rule_disabled(options, "concurrency-confinement");
  const bool want_graph = !rule_disabled(options, "hot-path") ||
                          !rule_disabled(options, "determinism-taint") ||
                          !rule_disabled(options, "unreached");
  if (want_dataflow || want_graph || stats != nullptr) {
    std::vector<Finding> program;
    SymbolTable symbols = extract_symbols(files, scans);
    run_dataflow_rules(files, scans, symbols, program,
                       stats != nullptr ? &stats->dataflow : nullptr);
    run_callgraph_rules(std::move(symbols), program, stats);
    for (auto& finding : program) {
      if (rule_disabled(options, finding.rule)) continue;
      const auto it = suppressions_by_file.find(finding.file);
      if (it != suppressions_by_file.end() && it->second.covers(finding)) {
        if (stats != nullptr && finding.rule == "unreached") ++stats->unreached_seams;
        continue;
      }
      kept.push_back(std::move(finding));
    }
  }

  sort_findings(kept);
  return kept;
}

std::vector<Finding> lint_tree(const std::string& root,
                               const std::vector<std::string>& dirs,
                               const Options& options,
                               std::vector<std::string>* io_errors,
                               ProgramStats* stats) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const auto& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    std::error_code ec;
    if (fs::is_regular_file(base, ec)) {
      paths.push_back(base);
      continue;
    }
    fs::recursive_directory_iterator it(base, ec);
    if (ec) {
      if (io_errors != nullptr)
        io_errors->push_back(base.generic_string() + ": " + ec.message());
      continue;
    }
    for (const auto& entry : it) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".cc") continue;
      const std::string rel = entry.path().generic_string();
      // Fixture snippets violate rules on purpose; never lint them in tree mode.
      if (rel.find("tests/lint/fixtures") != std::string::npos) continue;
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const auto& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      if (io_errors != nullptr)
        io_errors->push_back(path.generic_string() + ": cannot open");
      continue;
    }
    std::ostringstream content;
    content << in.rdbuf();
    std::error_code ec;
    fs::path rel = fs::relative(path, root, ec);
    files.push_back({(ec ? path : rel).generic_string(), content.str()});
  }
  return lint_files(files, options, stats);
}

std::string format_text(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": " + finding.rule +
         ": " + finding.message;
}

std::string format_json(const std::vector<Finding>& findings) {
  std::string out = "[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n  {\"file\": \"" + json_escape(findings[i].file) +
           "\", \"line\": " + std::to_string(findings[i].line) + ", \"rule\": \"" +
           json_escape(findings[i].rule) + "\", \"message\": \"" +
           json_escape(findings[i].message) + "\"}";
  }
  out += findings.empty() ? "]\n" : "\n]\n";
  return out;
}

std::string format_sarif(const std::vector<Finding>& findings) {
  std::string out;
  out += "{\n";
  out += "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out += "  \"version\": \"2.1.0\",\n";
  out += "  \"runs\": [\n    {\n";
  out += "      \"tool\": {\n        \"driver\": {\n";
  out += "          \"name\": \"iwlint\",\n";
  out += "          \"informationUri\": "
         "\"https://example.invalid/iwscan/DESIGN.md\",\n";
  out += "          \"rules\": [\n";
  const auto& names = rule_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",\n";
    out += "            {\"id\": \"" + json_escape(names[i]) +
           "\", \"shortDescription\": {\"text\": \"" + json_escape(names[i]) +
           "\"}, \"fullDescription\": {\"text\": \"" +
           json_escape(rule_explanation(names[i])) + "\"}}";
  }
  out += "\n          ]\n        }\n      },\n";
  out += "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (i > 0) out += ",\n";
    const Finding& finding = findings[i];
    out += "        {\"ruleId\": \"" + json_escape(finding.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           json_escape(finding.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           json_escape(finding.file) +
           "\", \"uriBaseId\": \"%SRCROOT%\"}, \"region\": {\"startLine\": " +
           std::to_string(finding.line > 0 ? finding.line : 1) + "}}}]}";
  }
  out += findings.empty() ? "      ]\n" : "\n      ]\n";
  out += "    }\n  ]\n}\n";
  return out;
}

}  // namespace iwscan::lint
