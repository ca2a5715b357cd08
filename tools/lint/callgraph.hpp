// Cross-TU call-graph layer: the reachability half of iwlint's
// whole-program analysis, over the symbol index built by symbols.hpp.
//
// Three reachability rules run on top of the index:
//
//   hot-path          IWSCAN_HOT roots (the PR 4 datapath) must not reach
//                     allocation, container growth, locks, blocking calls,
//                     throw, or iostreams. IWSCAN_HOT_BOUNDARY marks the
//                     audited hand-off points where traversal stops.
//   determinism-taint wall-clock/entropy sources must not be reachable
//                     from the scan roots (run_iw_scan, exec::run_scan)
//                     except inside the quarantined sinks src/util/rng.cpp
//                     and src/util/stopwatch.cpp.
//   unreached         every main in bench/, examples/ and tools/ is a root;
//                     each src/ function no root reaches is reported, and
//                     the message says whether tests reach it. An edge is
//                     any use of a name (FunctionDef::refs), not just a
//                     call, and names used outside any indexed function
//                     (namespace/class-scope initializers, #define bodies,
//                     operator bodies) count as used by a root. Files
//                     outside src/ join only as callers: the two rules
//                     above never see them. Silent unless the linted set
//                     holds all three root directories.
//
// The graph is deliberately over-approximate: call edges resolve by the
// callee's unqualified name, so overload sets, virtual dispatch, and
// method calls through any object all produce edges. Propagation is a
// worklist over the (possibly cyclic) graph, so recursion and mutual
// recursion converge. Known blind spots of the first two (documented in
// DESIGN.md §9): implicit constructor/destructor/operator invocations,
// calls through function pointers/std::function/InlineFn, and macro bodies
// (a macro's tokens sit at file scope, outside any function). For
// unreached, bare-name resolution can hide dead code behind a same-named
// function, but never reports live code dead.
#pragma once

#include <cstddef>
#include <vector>

#include "dataflow.hpp"
#include "iwlint.hpp"
#include "symbols.hpp"
#include "tokens.hpp"

namespace iwscan::lint {

/// Size of the whole-program analysis, for --json visibility and the bench
/// guard.
struct ProgramStats {
  std::size_t files = 0;       // src/ files fed into the symbol pass
  std::size_t functions = 0;   // function definitions indexed
  std::size_t call_edges = 0;  // resolved (caller, callee-def) edges
  std::size_t hot_roots = 0;   // IWSCAN_HOT roots found
  std::size_t taint_roots = 0; // determinism roots found
  std::size_t unreached_roots = 0;  // driver mains (0: the rule was silent)
  std::size_t unreached_seams = 0;  // unreached findings under allow(unreached)
  DataflowStats dataflow;      // the per-function taint pass (dataflow.hpp)
};

/// Run the cross-TU reachability rules over the symbol table, appending
/// raw findings (suppressions are applied by the caller). Takes the table
/// by value: the graph re-sorts and re-indexes the definitions.
void run_callgraph_rules(SymbolTable symbols, std::vector<Finding>& findings,
                         ProgramStats* stats);

}  // namespace iwscan::lint
