// Live progress reporting for scans.
//
// The scan executor's merger invokes the callback periodically (every
// `progress_interval` merged records, and whenever a shard completes) with
// a consistent snapshot. Shards report kept records (RAM or spill) in
// steps of `progress_interval`. Counters are cumulative across all shards
// and never decrease. The callback always runs on the thread that called
// exec::run_scan, never on a worker.
#pragma once

#include <cstdint>
#include <functional>

namespace iwscan::exec {

struct ProgressSnapshot {
  std::uint64_t targets_started = 0;  // probe sessions launched, all shards
  std::uint64_t records_merged = 0;   // host records shards reported as kept
  std::uint64_t outstanding = 0;      // started but not yet merged
  std::uint64_t shards_done = 0;
  std::uint64_t shards_total = 0;
};

using ProgressFn = std::function<void(const ProgressSnapshot&)>;

}  // namespace iwscan::exec
