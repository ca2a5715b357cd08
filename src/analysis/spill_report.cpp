#include "analysis/spill_report.hpp"

#include "store/spill.hpp"

namespace iwscan::analysis {

namespace {

/// Folds one merged record stream. The reader's own error state (CRC
/// mismatch, cycle regression) ends the fold; the caller checks ok().
SpillSummary summarize_spill(store::MergeReader<core::HostScanRecord>& reader) {
  SpillSummary out;
  out.seed = reader.seed();
  std::uint64_t cycle = 0;
  core::HostScanRecord record;
  while (reader.next(cycle, record)) {
    accumulate(out.summary, record);
    if (record.outcome == core::HostOutcome::Success) {
      ++out.histogram[record.iw_segments];
    }
    ++out.records;
  }
  return out;
}

}  // namespace

bool summarize_spill_files(const std::vector<std::string>& inputs, SpillSummary& out,
                           std::string& error) {
  std::vector<std::string> files;
  if (!store::collect_spill_files(inputs, store::RecordKind::Host, files, &error)) {
    return false;
  }
  auto merge = store::open_merge<core::HostScanRecord>(files, &error);
  if (!merge.has_value()) return false;
  out = summarize_spill(*merge);
  if (!merge->ok()) {
    error = merge->error();
    return false;
  }
  return true;
}

}  // namespace iwscan::analysis
