// End-to-end convenience API: run a full IW scan of the simulated Internet
// and collect host records. This is the primary entry point a library user
// touches (see examples/quickstart.cpp).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/host_prober.hpp"
#include "exec/executor.hpp"
#include "inetmodel/internet.hpp"
#include "scanner/scan_engine.hpp"

namespace iwscan::analysis {

struct ScanOptions {
  core::ProbeProtocol protocol = core::ProbeProtocol::Http;
  double rate_pps = 150'000;          // paper's moderate rate (§3.4)
  double sample_fraction = 1.0;       // §4.1: 0.01 = the "1% is enough" mode
  std::uint64_t scan_seed = 7;
  std::size_t max_outstanding = 20'000;
  scan::SessionBudget budget;         // per-session graceful-degradation caps
  bool popular_space = false;         // Alexa-style scan (Fig. 4)
  std::vector<net::Cidr> blocklist;   // never probed (ZMap ethics model)
  core::IwScanConfig probe;           // port is derived from protocol
  // Parallel execution (exec::run_scan): >1 splits the scan over that many
  // worker threads; the merged output is byte-identical for any value on a
  // fresh world with the same seeds.
  std::uint64_t shards = 1;
  exec::ProgressFn progress;               // optional live-progress callback
  std::uint64_t progress_interval = 1024;  // merged records between snapshots
  // Two-phase mode (exec::run_scan's sweep stage): a stateless ZBanner-style
  // sweep covers the whole space first and only responsive hosts are
  // promoted into the stateful IW estimator. Output records are
  // byte-identical to a stateful-everywhere scan restricted to the
  // responsive set.
  bool two_phase = false;
  double sweep_rate_pps = 600'000;  // phase-1 SYN rate (global)
  // >0 caps phase 2 at the K responsive hosts with the lowest global
  // permutation-cycle indices (deterministic truncation, any shard count).
  std::uint64_t max_promoted_hosts = 0;
  // Multi-process operator mode (ZMap-style --shard i/N): this process owns
  // the permutation residue process_shard (mod process_shards); the merged
  // output across all N processes equals a single-process run. Processes
  // must share scan_seed (tools/iwmerge enforces this on merge).
  std::uint64_t process_shard = 0;
  std::uint64_t process_shards = 1;
  // Bounded-memory result path: when non-empty, records stream into
  // fixed-size columnar spill segments under this directory instead of
  // ScanOutput::records — RSS stays O(spill_segment_bytes) per worker, not
  // O(targets). Read back with store::open_merge or tools/iwmerge.
  std::string spill_dir;
  std::size_t spill_segment_bytes = 1u << 20;
};

/// Host records (cycle order), summed engine stats, virtual duration and
/// allowlist size; in two-phase mode also the sweep records, sweep stats
/// and promotion counts; in spill mode the per-shard spill files instead
/// of the record vectors (analysis::summarize_spill reads them back).
using ScanOutput = exec::ScanResult;

/// Runs the scan to completion on the network's event loop.
[[nodiscard]] ScanOutput run_iw_scan(sim::Network& network, model::InternetModel& internet,
                                     const ScanOptions& options);

}  // namespace iwscan::analysis
