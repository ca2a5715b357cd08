#include "callgraph.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <string_view>

namespace iwscan::lint {
namespace {

// ---------------------------------------------------------------------------
// Reachability: worklist BFS with parent tracking (cycle-tolerant — a
// visited function is never re-expanded, so recursion and mutual recursion
// converge). Determinism: defs are sorted by (file, line) before indexing
// and adjacency lists preserve that order.
// ---------------------------------------------------------------------------

struct Graph {
  std::vector<FunctionDef> defs;
  std::map<std::string, std::vector<int>, std::less<>> by_last;
  std::set<std::string> boundary_last;
  std::set<std::string> boundary_qualified;
};

/// BFS from `roots`. Returns parent indices (-1 for roots), or absent =
/// unreachable.
std::map<int, int> reach(const Graph& graph, const std::vector<int>& roots,
                         bool respect_boundaries,
                         const std::set<std::string>& opaque_files) {
  std::map<int, int> parent;
  std::deque<int> queue;
  for (const int root : roots) {
    if (parent.emplace(root, -1).second) queue.push_back(root);
  }
  while (!queue.empty()) {
    const int at = queue.front();
    queue.pop_front();
    const FunctionDef& def = graph.defs[static_cast<std::size_t>(at)];
    if (opaque_files.count(def.file) != 0) continue;  // quarantined sink
    for (const auto& callee : def.callees) {
      if (respect_boundaries && graph.boundary_last.count(callee) != 0) continue;
      const auto targets = graph.by_last.find(callee);
      if (targets == graph.by_last.end()) continue;
      for (const int target : targets->second) {
        const FunctionDef& td = graph.defs[static_cast<std::size_t>(target)];
        if (td.noreturn) continue;  // cold failure paths may do anything
        if (respect_boundaries &&
            graph.boundary_qualified.count(td.qualified) != 0) {
          continue;
        }
        if (parent.emplace(target, at).second) queue.push_back(target);
      }
    }
  }
  return parent;
}

[[nodiscard]] std::string chain_string(const Graph& graph,
                                       const std::map<int, int>& parent, int at) {
  std::vector<const std::string*> names;
  for (int cur = at; cur != -1;) {
    names.push_back(&graph.defs[static_cast<std::size_t>(cur)].display);
    const auto it = parent.find(cur);
    cur = (it == parent.end()) ? -1 : it->second;
  }
  std::reverse(names.begin(), names.end());
  std::string out;
  const std::size_t n = names.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (n > 7 && i == 3) {  // elide the middle of very long chains
      out += " -> ...";
      i = n - 4;
      continue;
    }
    if (!out.empty()) out += " -> ";
    out += *names[i];
  }
  return out;
}

void report(const Graph& graph, const std::map<int, int>& parent,
            bool hot_kinds, std::string_view rule, std::string_view root_word,
            std::string_view tail, const std::set<std::string>& skip_files,
            std::vector<Finding>& findings) {
  // Visit order: (file, line) of the containing definition, then fact order.
  std::vector<int> visited;
  visited.reserve(parent.size());
  for (const auto& [idx, _] : parent) visited.push_back(idx);
  std::sort(visited.begin(), visited.end(), [&](int a, int b) {
    const auto& fa = graph.defs[static_cast<std::size_t>(a)];
    const auto& fb = graph.defs[static_cast<std::size_t>(b)];
    return std::tie(fa.file, fa.line) < std::tie(fb.file, fb.line);
  });
  std::set<std::string> seen;  // file:line:token dedup across roots/paths
  for (const int idx : visited) {
    const FunctionDef& def = graph.defs[static_cast<std::size_t>(idx)];
    if (skip_files.count(def.file) != 0) continue;
    for (const Fact& fact : def.facts) {
      const bool is_hot_fact =
          fact.kind != FactKind::Entropy && fact.kind != FactKind::WallClock;
      if (is_hot_fact != hot_kinds) continue;
      std::string key = def.file + ":" + std::to_string(fact.line) + ":" + fact.token;
      if (!seen.insert(std::move(key)).second) continue;
      findings.push_back(
          {def.file, fact.line, std::string(rule),
           std::string(fact_label(fact.kind)) + " '" + fact.token + "' in '" +
               def.display + "' is reachable from " + std::string(root_word) +
               " via " + chain_string(graph, parent, idx) + "; " +
               std::string(tail)});
    }
  }
}

// ---------------------------------------------------------------------------
// unreached: src/ definitions that no driver main reaches. Edges are every
// name a definition uses (FunctionDef::refs), resolved by bare name like the
// call edges, so reach over-approximates: a name collision can hide dead
// code, but live code is never reported dead.
// ---------------------------------------------------------------------------

enum class Tree { Src, Driver, Test, Other };

[[nodiscard]] Tree tree_of(std::string_view file) {
  const auto under = [&](std::string_view dir) { return file.rfind(dir, 0) == 0; };
  if (under("src/")) return Tree::Src;
  if (under("bench/") || under("examples/") || under("tools/")) return Tree::Driver;
  if (under("tests/")) return Tree::Test;
  return Tree::Other;
}

struct RefGraph {
  std::vector<const FunctionDef*> nodes;  // src/ definitions first
  std::vector<Tree> trees;                // parallel to nodes
  std::map<std::string_view, std::vector<int>, std::less<>> by_last;
};

/// Definitions reachable from `seeds`, entering only src/ and `side`.
[[nodiscard]] std::vector<bool> reach_refs(const RefGraph& graph,
                                           const std::vector<int>& seeds,
                                           Tree side) {
  std::vector<bool> seen(graph.nodes.size(), false);
  std::deque<int> queue;
  for (const int seed : seeds) {
    if (!seen[static_cast<std::size_t>(seed)]) {
      seen[static_cast<std::size_t>(seed)] = true;
      queue.push_back(seed);
    }
  }
  while (!queue.empty()) {
    const int at = queue.front();
    queue.pop_front();
    for (const auto& name : graph.nodes[static_cast<std::size_t>(at)]->refs) {
      const auto targets = graph.by_last.find(name);
      if (targets == graph.by_last.end()) continue;
      for (const int target : targets->second) {
        const auto t = static_cast<std::size_t>(target);
        if (seen[t] || (graph.trees[t] != Tree::Src && graph.trees[t] != side)) {
          continue;
        }
        seen[t] = true;
        queue.push_back(target);
      }
    }
  }
  return seen;
}

/// Returns the number of driver mains (0 when the rule stays silent).
std::size_t report_unreached(const std::vector<FunctionDef>& defs,
                             const std::vector<FunctionDef>& callers,
                             std::vector<Finding>& findings) {
  RefGraph graph;
  for (const auto& def : defs) graph.nodes.push_back(&def);
  for (const auto& def : callers) graph.nodes.push_back(&def);
  std::set<std::string_view> driver_dirs;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const FunctionDef& def = *graph.nodes[i];
    graph.trees.push_back(tree_of(def.file));
    if (!def.last.empty()) graph.by_last[def.last].push_back(static_cast<int>(i));
    if (graph.trees.back() == Tree::Driver) {
      driver_dirs.insert(std::string_view(def.file).substr(0, def.file.find('/')));
    }
  }
  // Roots exist only in a whole-program run: without all three driver
  // trees every src/ function would look dead.
  if (driver_dirs.size() < 3) return 0;

  // Roots: the driver mains, and every file-scope entry (names used
  // outside any function) of src/ and the driver trees.
  std::size_t mains = 0;
  std::vector<int> roots;
  std::vector<int> tests;
  for (std::size_t i = 0; i < graph.nodes.size(); ++i) {
    const FunctionDef& def = *graph.nodes[i];
    const Tree tree = graph.trees[i];
    const bool is_main = tree == Tree::Driver && def.qualified == "main";
    mains += is_main ? 1 : 0;
    if (is_main || (def.last.empty() && (tree == Tree::Src || tree == Tree::Driver))) {
      roots.push_back(static_cast<int>(i));
    }
    if (tree == Tree::Test) tests.push_back(static_cast<int>(i));
  }
  const auto from_roots = reach_refs(graph, roots, Tree::Driver);
  const auto from_tests = reach_refs(graph, tests, Tree::Test);
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const FunctionDef& def = defs[i];
    if (from_roots[i] || def.implicit) continue;
    findings.push_back(
        {def.file, def.line, "unreached",
         "'" + def.display +
             "' is reached from no bench/, examples/ or tools/ main; " +
             (from_tests[i]
                  ? "only tests reach it. Delete it, or keep it as a test "
                    "seam: // iwlint: allow(unreached) -- <what it pins>"
                  : "nothing reaches it, tests included. Delete it")});
  }
  return mains;
}

}  // namespace

void run_callgraph_rules(SymbolTable symbols, std::vector<Finding>& findings,
                         ProgramStats* stats) {
  Graph graph;
  graph.defs = std::move(symbols.defs);
  std::sort(graph.defs.begin(), graph.defs.end(),
            [](const FunctionDef& a, const FunctionDef& b) {
              return std::tie(a.file, a.line) < std::tie(b.file, b.line);
            });
  for (auto& def : graph.defs) {
    if (symbols.hot_qualified.count(def.qualified) != 0) def.hot = true;
    if (symbols.noreturn_qualified.count(def.qualified) != 0) def.noreturn = true;
  }
  graph.boundary_last = std::move(symbols.boundary_last);
  graph.boundary_qualified = std::move(symbols.boundary_qualified);
  for (std::size_t i = 0; i < graph.defs.size(); ++i) {
    graph.by_last[graph.defs[i].last].push_back(static_cast<int>(i));
  }

  std::vector<int> hot_roots;
  std::vector<int> taint_roots;
  for (std::size_t i = 0; i < graph.defs.size(); ++i) {
    const FunctionDef& def = graph.defs[i];
    if (def.hot) hot_roots.push_back(static_cast<int>(i));
    if (def.last == "run_iw_scan" || def.qualified == "iwscan::exec::run_scan") {
      taint_roots.push_back(static_cast<int>(i));
    }
  }

  // Hot-path purity: IWSCAN_HOT roots, boundaries honored, every file fair
  // game.
  const auto hot_parent = reach(graph, hot_roots, /*respect_boundaries=*/true, {});
  report(graph, hot_parent, /*hot_kinds=*/true, "hot-path",
         "an IWSCAN_HOT root",
         "the hot datapath must stay allocation-free and non-blocking "
         "(DESIGN.md §9)",
         {}, findings);

  // Determinism taint: scan roots, boundaries ignored (determinism must
  // hold through every layer), entropy quarantined to the two sink files.
  const std::set<std::string> quarantine = {"src/util/rng.cpp",
                                            "src/util/stopwatch.cpp"};
  const auto taint_parent =
      reach(graph, taint_roots, /*respect_boundaries=*/false, quarantine);
  report(graph, taint_parent, /*hot_kinds=*/false, "determinism-taint",
         "a scan root (run_iw_scan/exec::run_scan)",
         "entropy and wall-clock reads must stay quarantined in "
         "src/util/rng.cpp and src/util/stopwatch.cpp (DESIGN.md §9)",
         quarantine, findings);

  const std::size_t mains = report_unreached(graph.defs, symbols.callers, findings);

  if (stats != nullptr) {
    stats->unreached_roots = mains;
    stats->files = symbols.files_indexed;
    stats->functions = graph.defs.size();
    std::size_t edges = 0;
    for (const auto& def : graph.defs) {
      for (const auto& callee : def.callees) {
        const auto it = graph.by_last.find(callee);
        if (it != graph.by_last.end()) edges += it->second.size();
      }
    }
    stats->call_edges = edges;
    stats->hot_roots = hot_roots.size();
    stats->taint_roots = taint_roots.size();
  }
}

}  // namespace iwscan::lint
