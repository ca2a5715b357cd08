// Shared symbol index: the extraction layer under both whole-program
// analyses (callgraph.hpp reachability, dataflow.hpp per-function taint).
//
// One pass over each src/ translation unit's tokens builds the function
// definitions — with their local facts, call sites, and body/parameter
// token ranges — plus the annotation sets and the namespace-scope mutable
// globals. The same pass over bench/, examples/, tools/ and tests/ builds
// caller-only definitions for the unreached rule (callgraph.hpp). Scope
// tracking is brace-based: namespaces and classes push named scopes,
// function bodies push a function scope, and every other '{' (lambdas,
// control flow) pushes an anonymous block — which is exactly the
// fold-lambdas-into-their-enclosing-function semantics the rules want.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "iwlint.hpp"
#include "tokens.hpp"

namespace iwscan::lint {

// Fact vocabulary: what a function body can do that the reachability rules
// care about. Hot-path purity consumes the first six; determinism taint
// consumes the last two.
enum class FactKind {
  Alloc,      // new / make_unique / make_shared / to_string / malloc family
  Growth,     // .push_back() and friends — container growth idioms
  Lock,       // mutex/lock_guard construction, .lock()/.try_lock()
  Blocking,   // sleep_for / poll / select style blocking calls
  Throw,      // throw expression
  Iostream,   // iostream objects, fstream/stringstream, printf family
  Entropy,    // std::random_device, srand, rand()
  WallClock,  // *_clock::now(), time(), clock_gettime, gettimeofday
};

[[nodiscard]] std::string_view fact_label(FactKind kind);

struct Fact {
  FactKind kind;
  int line;
  std::string token;  // what matched, for the message
};

struct FunctionDef {
  std::string qualified;  // scope-joined, e.g. "iwscan::sim::Network::send"
  std::string display;    // short form for chains, e.g. "Network::send"
  std::string last;       // unqualified name, the call-edge key
  std::string file;
  int line = 0;
  bool hot = false;
  bool noreturn = false;
  std::size_t file_index = 0;    // index into the extraction's file list
  std::size_t params_begin = 0;  // token range of the parameter list,
  std::size_t params_end = 0;    // exclusive of the parentheses
  std::size_t body_begin = 0;    // token range of the body, exclusive of
  std::size_t body_end = 0;      // the braces ([begin, end))
  std::vector<Fact> facts;
  std::set<std::string> callees;  // unqualified callee names, deduplicated
  // Every identifier in the parameters, initializer list and body: the
  // unreached rule's edges, where any use of a name counts, not just a call.
  std::set<std::string> refs;
  bool implicit = false;  // constructor, destructor or conversion operator
};

/// A mutable variable declared at namespace scope — shared state the
/// concurrency-confinement rule bans tree-wide (const/constexpr are exempt
/// during extraction).
struct GlobalVar {
  std::string name;
  std::string file;
  int line = 0;
};

struct SymbolTable {
  std::vector<FunctionDef> defs;
  std::vector<GlobalVar> globals;
  std::set<std::string> hot_qualified;       // IWSCAN_HOT on declarations
  std::set<std::string> noreturn_qualified;  // [[noreturn]] on declarations
  std::set<std::string> boundary_last;       // IWSCAN_HOT_BOUNDARY names
  std::set<std::string> boundary_qualified;  // ... and qualified forms
  std::size_t files_indexed = 0;             // src/ files fed into the pass
  // Read only by the unreached rule, so the hot-path, determinism-taint and
  // dataflow passes stay src/-only: the definitions of files outside src/,
  // plus one unnamed entry per file (src/ included) whose refs are the names
  // used outside any indexed function — namespace- and class-scope
  // initializers, macro bodies, and bodies the index cannot name (operators).
  std::vector<FunctionDef> callers;
};

/// Build the symbol table over `files`: src/ files feed every table above,
/// the rest only `callers`. `scans` is the per-file tokenization, parallel
/// to `files` (tokenize once, analyze many times). FunctionDef token ranges
/// index into the matching scan's token vector via `file_index`.
[[nodiscard]] SymbolTable extract_symbols(const std::vector<SourceFile>& files,
                                          const std::vector<ScanResult>& scans);

}  // namespace iwscan::lint
