// Streaming report generation over spilled scan records. This is the
// read side of the bounded-memory contract (store/spill.hpp): the paper's
// Table 1 / Fig. 3 aggregates are folds, so a whole-IPv4 result set can be
// reduced through the K-way merge iterator one record at a time — peak RSS
// stays O(segment), never O(records). tools/iwmerge is the CLI wrapper.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/iw_table.hpp"

namespace iwscan::analysis {

/// Everything the quickstart report needs, computed in one streaming pass.
struct SpillSummary {
  DatasetSummary summary;
  std::map<std::uint32_t, std::uint64_t> histogram;  // IW segments → hosts
  std::uint64_t records = 0;
  std::uint64_t seed = 0;  // scan seed stamped in the segment headers
};

/// Collects spill inputs (files or directories), opens the merge and folds
/// it into `out`; to_fractions(out.histogram) is the in-RAM path's
/// iw_fractions(). Returns false with a diagnostic in `error` on any
/// integrity or identity failure (mixed seeds, overlapping shards,
/// corrupted segments, a cycle regression mid-merge).
[[nodiscard]] bool summarize_spill_files(const std::vector<std::string>& inputs,
                                         SpillSummary& out, std::string& error);

}  // namespace iwscan::analysis
