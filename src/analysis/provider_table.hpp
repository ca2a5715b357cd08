// IW-by-provider breakdown and the longitudinal (multi-epoch) drift tables.
//
// The per-provider view is the CDN-era refinement of the paper's Table 3:
// instead of a handful of named networks, every AS in the registry gets a
// row with its success counts, median measured IW, the share of large
// (IW ≥ 16) windows, and how many of its hosts degraded to bounded
// estimates because the first flight was paced (ProbeAnomaly::PacedDelivery).
//
// The longitudinal table puts one breakdown per epoch side by side: the
// same world scanned at T0/T1/T2, whose IW and CDN-tier drift
// (ModelConfig::epoch) is monotone and deterministic per host — the §5
// trend-monitoring loop. cdn_test pins it byte-identical across shard
// counts and under the spill path.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "inetmodel/as_registry.hpp"

namespace iwscan::analysis {

/// One provider (AS) row of the IW-by-provider breakdown.
struct ProviderIwRow {
  std::uint32_t asn = 0;
  std::string name;
  std::string kind;            // to_string(AsKind)
  std::uint64_t reachable = 0;
  std::uint64_t success = 0;
  std::uint64_t few_data = 0;
  std::uint64_t paced = 0;     // PacedDelivery anomalies (bounded estimates)
  std::map<std::uint32_t, std::uint64_t> histogram;  // IW segments → successes
  std::uint32_t median_iw = 0; // over successful estimates (0 if none)
  std::uint64_t large_iw = 0;  // successes with IW ≥ 16 (the CDN tiers)

  [[nodiscard]] double large_iw_share() const noexcept {
    return success != 0 ? static_cast<double>(large_iw) /
                              static_cast<double>(success)
                        : 0.0;
  }
  [[nodiscard]] double paced_share() const noexcept {
    return reachable != 0 ? static_cast<double>(paced) /
                                static_cast<double>(reachable)
                          : 0.0;
  }
};

/// Groups records by the AS owning each address. Rows come out in registry
/// order (deterministic); ASes no record fell into are omitted.
[[nodiscard]] std::vector<ProviderIwRow> provider_breakdown(
    std::span<const core::HostScanRecord> records,
    const model::AsRegistry& registry);

/// One epoch's breakdown, a column group of the longitudinal table.
struct EpochBreakdown {
  int epoch = 0;
  std::vector<ProviderIwRow> rows;
};

/// The drift table: one row per provider, one column group per epoch
/// (successes, median IW, IW ≥ 16 share, paced share).
[[nodiscard]] std::string render_longitudinal_table(
    std::span<const EpochBreakdown> epochs, bool markdown = false);

}  // namespace iwscan::analysis
