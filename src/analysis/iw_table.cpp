#include "analysis/iw_table.hpp"

#include <cmath>

namespace iwscan::analysis {

void accumulate(DatasetSummary& summary, const core::HostScanRecord& record) {
  ++summary.probed;
  if (record.outcome == core::HostOutcome::Unreachable) return;
  ++summary.reachable;
  switch (record.outcome) {
    case core::HostOutcome::Success: ++summary.success; break;
    case core::HostOutcome::FewData: ++summary.few_data; break;
    case core::HostOutcome::Error: ++summary.error; break;
    case core::HostOutcome::Unreachable: break;
  }
}

DatasetSummary summarize(std::span<const core::HostScanRecord> records) {
  DatasetSummary summary;
  for (const auto& record : records) accumulate(summary, record);
  return summary;
}

std::map<std::uint32_t, std::uint64_t> iw_histogram(
    std::span<const core::HostScanRecord> records) {
  std::map<std::uint32_t, std::uint64_t> histogram;
  for (const auto& record : records) {
    if (record.outcome == core::HostOutcome::Success) {
      ++histogram[record.iw_segments];
    }
  }
  return histogram;
}

std::map<std::uint32_t, double> to_fractions(
    const std::map<std::uint32_t, std::uint64_t>& histogram) {
  std::uint64_t total = 0;
  for (const auto& [key, count] : histogram) total += count;
  std::map<std::uint32_t, double> fractions;
  if (total == 0) return fractions;
  for (const auto& [key, count] : histogram) {
    fractions[key] = static_cast<double>(count) / static_cast<double>(total);
  }
  return fractions;
}

std::map<std::uint32_t, double> iw_fractions(
    std::span<const core::HostScanRecord> records) {
  return to_fractions(iw_histogram(records));
}

std::map<std::uint32_t, double> dominant_iws(
    const std::map<std::uint32_t, double>& fractions, double min_fraction) {
  std::map<std::uint32_t, double> dominant;
  for (const auto& [iw, fraction] : fractions) {
    if (fraction >= min_fraction) dominant.emplace(iw, fraction);
  }
  return dominant;
}

std::map<std::uint32_t, double> few_data_lower_bounds(
    std::span<const core::HostScanRecord> records) {
  std::map<std::uint32_t, std::uint64_t> counts;
  for (const auto& record : records) {
    if (record.outcome == core::HostOutcome::FewData) ++counts[record.lower_bound];
  }
  return to_fractions(counts);
}

double l1_distance(const std::map<std::uint32_t, double>& a,
                   const std::map<std::uint32_t, double>& b) {
  double distance = 0.0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && ia->first < ib->first)) {
      distance += std::abs(ia->second);
      ++ia;
    } else if (ia == a.end() || ib->first < ia->first) {
      distance += std::abs(ib->second);
      ++ib;
    } else {
      distance += std::abs(ia->second - ib->second);
      ++ia;
      ++ib;
    }
  }
  return distance;
}

}  // namespace iwscan::analysis
