// Aggregation of host scan records into the paper's tables and figures:
// Table 1 (dataset overview), Fig. 3/4 (IW distributions), Table 2
// (few-data lower bounds).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "core/result.hpp"

namespace iwscan::analysis {

/// Table 1 row: reachable hosts and outcome shares.
struct DatasetSummary {
  std::uint64_t probed = 0;       // targets with any reply (reachable+refused)
  std::uint64_t reachable = 0;    // data exchange possible
  std::uint64_t success = 0;
  std::uint64_t few_data = 0;
  std::uint64_t error = 0;

  [[nodiscard]] double success_rate() const noexcept {
    return reachable ? static_cast<double>(success) / reachable : 0.0;
  }
  [[nodiscard]] double few_data_rate() const noexcept {
    return reachable ? static_cast<double>(few_data) / reachable : 0.0;
  }
  [[nodiscard]] double error_rate() const noexcept {
    return reachable ? static_cast<double>(error) / reachable : 0.0;
  }
};

/// Folds one record into the summary. summarize() loops this; the spill
/// read path (analysis::summarize_spill_files) calls it record-by-record so
/// the whole dataset never has to be resident.
void accumulate(DatasetSummary& summary, const core::HostScanRecord& record);

[[nodiscard]] DatasetSummary summarize(std::span<const core::HostScanRecord> records);

/// IW histogram over successful estimates: IW segments → host count.
[[nodiscard]] std::map<std::uint32_t, std::uint64_t> iw_histogram(
    std::span<const core::HostScanRecord> records);

/// Any key → count histogram as fractions of its total (empty when the
/// total is 0).
[[nodiscard]] std::map<std::uint32_t, double> to_fractions(
    const std::map<std::uint32_t, std::uint64_t>& histogram);

/// iw_histogram as fractions of all successful hosts.
[[nodiscard]] std::map<std::uint32_t, double> iw_fractions(
    std::span<const core::HostScanRecord> records);

/// Fig. 3 filter: keep IWs held by at least `min_fraction` of hosts.
[[nodiscard]] std::map<std::uint32_t, double> dominant_iws(
    const std::map<std::uint32_t, double>& fractions, double min_fraction = 0.001);

/// Table 2: few-data lower-bound distribution. Key 0 is the NoData bucket;
/// values are fractions of all few-data hosts.
[[nodiscard]] std::map<std::uint32_t, double> few_data_lower_bounds(
    std::span<const core::HostScanRecord> records);

/// L1 distance between two IW fraction maps (used for the sampling
/// stability analysis, §4.1).
[[nodiscard]] double l1_distance(const std::map<std::uint32_t, double>& a,
                                 const std::map<std::uint32_t, double>& b);

}  // namespace iwscan::analysis
