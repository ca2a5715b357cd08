#include "analysis/provider_table.hpp"

#include <algorithm>

#include "analysis/table_writer.hpp"

namespace iwscan::analysis {
namespace {

std::uint32_t histogram_median(const std::map<std::uint32_t, std::uint64_t>& hist) {
  std::uint64_t total = 0;
  for (const auto& [iw, count] : hist) total += count;
  if (total == 0) return 0;
  const std::uint64_t midpoint = (total + 1) / 2;
  std::uint64_t seen = 0;
  for (const auto& [iw, count] : hist) {
    seen += count;
    if (seen >= midpoint) return iw;
  }
  return hist.rbegin()->first;
}

}  // namespace

std::vector<ProviderIwRow> provider_breakdown(
    std::span<const core::HostScanRecord> records,
    const model::AsRegistry& registry) {
  // One slot per registry AS, filled in registry order so the output is
  // deterministic regardless of record order.
  std::vector<ProviderIwRow> slots(registry.all().size());
  std::vector<bool> touched(slots.size(), false);

  for (const auto& record : records) {
    const model::AsInfo* as = registry.find(record.ip);
    if (as == nullptr) continue;
    const auto index = static_cast<std::size_t>(as - registry.all().data());
    ProviderIwRow& row = slots[index];
    if (!touched[index]) {
      touched[index] = true;
      row.asn = as->asn;
      row.name = as->name;
      row.kind = std::string(model::to_string(as->kind));
    }
    if (record.outcome == core::HostOutcome::Unreachable) continue;
    ++row.reachable;
    if (record.anomaly == core::ProbeAnomaly::PacedDelivery) ++row.paced;
    switch (record.outcome) {
      case core::HostOutcome::Success:
        ++row.success;
        ++row.histogram[record.iw_segments];
        if (record.iw_segments >= 16) ++row.large_iw;
        break;
      case core::HostOutcome::FewData:
        ++row.few_data;
        break;
      default:
        break;
    }
  }

  std::vector<ProviderIwRow> rows;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!touched[i]) continue;
    slots[i].median_iw = histogram_median(slots[i].histogram);
    rows.push_back(std::move(slots[i]));
  }
  return rows;
}

std::string render_longitudinal_table(std::span<const EpochBreakdown> epochs,
                                      bool markdown) {
  // Row universe: providers in first-seen order across the epochs (registry
  // order within an epoch, so the union is deterministic too).
  std::vector<std::pair<std::uint32_t, std::string>> providers;
  for (const auto& epoch : epochs) {
    for (const auto& row : epoch.rows) {
      const bool known =
          std::any_of(providers.begin(), providers.end(),
                      [&row](const auto& p) { return p.first == row.asn; });
      if (!known) providers.emplace_back(row.asn, row.name);
    }
  }

  std::vector<std::string> headers = {"provider"};
  for (const auto& epoch : epochs) {
    const std::string tag = "T" + std::to_string(epoch.epoch);
    headers.push_back(tag + " success");
    headers.push_back(tag + " median");
    headers.push_back(tag + " IW>=16");
    headers.push_back(tag + " paced");
  }

  TextTable table(std::move(headers));
  for (const auto& [asn, name] : providers) {
    std::vector<std::string> cells = {name};
    for (const auto& epoch : epochs) {
      const auto it = std::find_if(
          epoch.rows.begin(), epoch.rows.end(),
          [asn = asn](const ProviderIwRow& row) { return row.asn == asn; });
      if (it == epoch.rows.end()) {
        cells.insert(cells.end(), {"-", "-", "-", "-"});
        continue;
      }
      cells.push_back(std::to_string(it->success));
      cells.push_back(std::to_string(it->median_iw));
      cells.push_back(fmt_double(it->large_iw_share() * 100.0) + "%");
      cells.push_back(fmt_double(it->paced_share() * 100.0) + "%");
    }
    table.add_row(std::move(cells));
  }
  return markdown ? table.markdown() : table.render();
}

}  // namespace iwscan::analysis
