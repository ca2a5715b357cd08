// End-to-end convenience API: run a full IW scan of the simulated Internet
// and collect host records. This is the primary entry point a library user
// touches (see examples/quickstart.cpp).
#pragma once

#include "exec/executor.hpp"
#include "inetmodel/internet.hpp"

namespace iwscan::analysis {

/// The one scan configuration; exec/executor.hpp documents its fields.
using ScanOptions = exec::ScanOptions;

/// Host records (cycle order), summed engine stats, virtual duration and
/// allowlist size; in two-phase mode also the sweep records, sweep stats
/// and promotion counts; in spill mode the per-shard spill files instead
/// of the record vectors (analysis::summarize_spill reads them back).
using ScanOutput = exec::ScanResult;

/// Runs the scan to completion on the network's event loop.
[[nodiscard]] inline ScanOutput run_iw_scan(sim::Network& network,
                                            model::InternetModel& internet,
                                            const ScanOptions& options) {
  return exec::run_scan(options, network, internet);
}

}  // namespace iwscan::analysis
