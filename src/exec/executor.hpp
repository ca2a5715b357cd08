// The scan executor: one pipeline, any shard count, deterministic merge.
//
// Every scan runs the same stages on whatever world it is given:
//
//   sweep     (two-phase only) StatelessSweep SYN-scans the space at a
//             high rate with zero per-host state (scanner/stateless.hpp),
//             keeping each responsive host's (address, cycle), and runs
//             to completion before anything is estimated;
//   promote   picks the estimator's targets: every address (stateful
//             tier), every responsive host the sweep found (two-phase),
//             or the K responsive hosts with the lowest global cycle
//             indices (two-phase with max_promoted_hosts, which needs
//             every shard's sweep);
//   estimate  ScanEngine runs the full IW probe sequence against each
//             promoted target (core::IwProbeModule).
//
// A shard runs those stages on one world and keeps its records until it is
// done; only counts reach the merger before then. shards<=1 runs inline on
// the caller's world; shards>1 runs on min(shards, hardware threads) pool
// threads, each shard on a private, identically-seeded world, reporting
// through one BoundedChannel. A capped scan runs two pool rounds (sweep,
// then estimate on the swept world) around the K-th-cycle threshold.
//
// Byte-identical output for any shard count rests on three legs:
//   1. per-target determinism upstream — session seeds, source ports
//      (scan::SessionServices) and path impairments (sim::Network per-flow
//      RNGs) depend only on (seed, target), never on launch interleaving;
//   2. identically-seeded private worlds — every worker synthesizes hosts
//      from the same pure (model seed, address) function, and host behavior
//      depends only on time *since its first packet*, so per-shard pacing
//      differences cannot leak into records;
//   3. a total merge order — every record is tagged with its target's
//      global permutation-cycle index, which interleaves shard streams back
//      into the single-shard emission order (see PermutationIterator).
// The sweep scans from its own source address (disjoint per-flow
// impairment streams and host connection keys), so running it first
// cannot perturb what the estimator observes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/host_prober.hpp"
#include "exec/progress.hpp"
#include "inetmodel/internet.hpp"
#include "scanner/scan_engine.hpp"
#include "scanner/stateless.hpp"

namespace iwscan::exec {

/// The one scan configuration, shared by all shards (analysis::ScanOptions
/// is an alias). run_scan resolves its two derived values once: the probe's
/// protocol/port from `protocol`, and an empty `allow`.
struct ScanOptions {
  core::ProbeProtocol protocol = core::ProbeProtocol::Http;
  core::IwScanConfig probe;      // protocol/port are derived from `protocol`
  double rate_pps = 150'000;     // §3.4's moderate rate; global, divided across shards
  double sample_fraction = 1.0;  // §4.1: 0.01 = the "1% is enough" mode
  std::uint64_t scan_seed = 7;
  std::size_t max_outstanding = 20'000;  // global cap; divided across shards
  scan::SessionBudget budget;  // per-session ceilings, identical in every shard
  std::vector<net::Cidr> allow;      // empty = the registry's whole scan space
  std::vector<net::Cidr> blocklist;  // never probed (ZMap ethics model)
  // >1 splits the scan over that many worker threads; the merged output is
  // byte-identical for any value on a fresh world with the same seeds.
  std::uint64_t shards = 1;
  // Multi-process operator mode (ZMap-style --shard i/N --seed S): this
  // process owns the permutation residue `process_shard` (mod
  // `process_shards`); thread shards subdivide that stride further. Cycle
  // indices stay global, so spill files from all processes merge back into
  // the single-process record order (tools/iwmerge). Processes must share
  // scan_seed (iwmerge enforces this on merge).
  std::uint64_t process_shard = 0;
  std::uint64_t process_shards = 1;
  // Two-phase mode: a stateless SYN sweep covers the space first and only
  // responsive hosts are promoted into the estimator. The sweep
  // probes probe.port and reuses scan_seed for its cookie key and target
  // permutation.
  bool two_phase = false;
  double sweep_rate_pps = 600'000;  // global; divided across shards
  // 0 = estimate every responsive host once the sweep is done. >0 =
  // estimate only the K responsive hosts with the lowest global cycle
  // indices. With process_shards > 1 the cap is per process, since
  // processes cannot see each other's responsive sets.
  std::uint64_t max_promoted_hosts = 0;
  // Bounded-memory result path: when non-empty, shards stream records
  // into per-shard columnar spill files under this directory
  // (store::SpillWriter) instead of growing ScanResult::records — RSS
  // stays O(spill_segment_bytes), not O(targets). Read the files back in
  // global cycle order with store::open_merge or tools/iwmerge.
  std::string spill_dir;
  std::size_t spill_segment_bytes = 1u << 20;
  ProgressFn progress;  // optional; invoked on the calling thread
  std::uint64_t progress_interval = 1024;  // merged records between snapshots
};

struct ScanResult {
  std::vector<core::HostScanRecord> records;  // permutation-cycle order
  scan::EngineStats engine;                   // summed over shards
  sim::SimTime duration{};  // virtual time: slowest sweep + slowest estimate
  std::uint64_t address_space = 0;            // allowlist size, post-merge
  // Two-phase mode only (zero otherwise):
  scan::SweepStats sweep;       // summed over shards
  std::uint64_t promoted = 0;   // responsive hosts handed to the estimator
  std::uint64_t truncated = 0;  // responsive hosts dropped by the cap
  // Spill mode only (records stays empty): one file per worker shard, in
  // shard order. Merge-read them to recover the record stream.
  std::vector<std::string> spill_files;
};

/// Runs the scan to completion. `network`/`internet` are the reference
/// world: shards<=1 executes directly on it; shards>1 leaves it untouched
/// and builds one identically-seeded private world per worker, so the
/// merged output is byte-identical to a shards=1 run on a fresh world with
/// the same seeds. A worker's estimate stage always runs on the world its
/// sweep stage swept. Aborts unless the world is fresh (its loop still at
/// time zero): a second scan on a used world would see the first scan's
/// hosts and flows at shards=1 but fresh worlds at shards>1. Also aborts
/// unless process_shard < process_shards: a zero stride never advances,
/// and a larger residue overlaps another process; and unless rate_pps
/// (and sweep_rate_pps, two-phase) is finite and > 0 and sample_fraction
/// lies in (0, 1].
[[nodiscard]] ScanResult run_scan(const ScanOptions& options, sim::Network& network,
                                  model::InternetModel& internet);

}  // namespace iwscan::exec
