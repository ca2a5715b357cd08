// iwmerge: K-way merge of columnar spill files from sharded scan processes.
//
// The multi-process operator workflow (ZMap-style, "Ten Years of ZMap"):
//
//   $ quickstart --shard=0/2 --spill-dir=run/p0 &
//   $ quickstart --shard=1/2 --spill-dir=run/p1 &
//   $ wait
//   $ iwmerge --inputs=run/p0,run/p1
//
// Each process spills its stride of the target permutation; iwmerge streams
// the union back in global cycle order and prints the same Table-1 /
// Fig.-3 report a single-process run would have printed — byte-identical,
// because cycle indices are globally unique across shards. Inputs from
// different scans (mixed seeds) or with intersecting strides (overlapping
// shards) are rejected with a diagnostic, not merged into garbage.
//
// With --out=DIR the merged host stream is re-spilled as one canonical
// shard-0-of-1 file instead, so downstream tooling can treat the sharded
// run as if it had been a single process.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/spill_report.hpp"
#include "core/result.hpp"
#include "store/spill.hpp"
#include "util/flags.hpp"
#include "util/strings.hpp"

namespace {

using namespace iwscan;

std::vector<std::string> parse_inputs(const std::string& list) {
  std::vector<std::string> inputs;
  for (std::string_view part : util::split(list, ',')) {
    if (!part.empty()) inputs.emplace_back(part);
  }
  return inputs;
}

/// Streams the merged record sequence into a fresh shard-0-of-1 spill file
/// under `dir`, preserving cycle tags. RSS stays O(segment) end to end.
int rewrite_merged(const std::vector<std::string>& files, const std::string& dir,
                   std::size_t segment_bytes) {
  std::string error;
  auto merge = store::open_merge<core::HostScanRecord>(files, &error);
  if (!merge.has_value()) {
    std::fprintf(stderr, "iwmerge: %s\n", error.c_str());
    return 1;
  }
  store::SpillConfig config;
  config.directory = dir;
  config.segment_bytes = segment_bytes;
  config.seed = merge->seed();
  store::SpillWriter<core::HostScanRecord> writer(config);
  std::uint64_t cycle = 0;
  core::HostScanRecord record;
  while (merge->next(cycle, record)) writer.append(cycle, record);
  if (!merge->ok()) {
    std::fprintf(stderr, "iwmerge: %s\n", merge->error().c_str());
    return 1;
  }
  if (!writer.close()) {
    std::fprintf(stderr, "iwmerge: %s\n", writer.error().c_str());
    return 1;
  }
  std::printf("merged %llu records from %zu spill files into %s\n",
              static_cast<unsigned long long>(merge->record_count()), files.size(),
              writer.path().c_str());
  return 0;
}

int print_report(const std::vector<std::string>& inputs) {
  analysis::SpillSummary merged;
  std::string error;
  if (!analysis::summarize_spill_files(inputs, merged, error)) {
    std::fprintf(stderr, "iwmerge: %s\n", error.c_str());
    return 1;
  }
  std::printf("probed %llu hosts (seed %llu): %llu reachable, success %.1f%%, "
              "few-data %.1f%%, error %.1f%%\n",
              static_cast<unsigned long long>(merged.records),
              static_cast<unsigned long long>(merged.seed),
              static_cast<unsigned long long>(merged.summary.reachable),
              merged.summary.success_rate() * 100,
              merged.summary.few_data_rate() * 100,
              merged.summary.error_rate() * 100);
  std::printf("\nIW distribution (successful estimates):\n");
  for (const auto& [iw, fraction] : analysis::to_fractions(merged.histogram)) {
    if (fraction < 0.001) continue;
    std::printf("  IW %-3u %6.2f%%  %s\n", iw, fraction * 100,
                std::string(static_cast<std::size_t>(fraction * 120), '#').c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define_string("inputs", "",
                      "comma-separated spill files or directories, one per "
                      "scan process (e.g. run/p0,run/p1)");
  flags.define_string("out", "",
                      "re-spill the merged stream into this directory as one "
                      "canonical shard-0-of-1 file instead of printing a report");
  flags.define_u64("segment-bytes", store::kDefaultSegmentBytes,
                   "segment size for --out rewriting");
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", flags.error().c_str(), flags.usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.usage(argv[0]).c_str());
    return 0;
  }

  const std::vector<std::string> inputs = parse_inputs(flags.str("inputs"));
  if (inputs.empty()) {
    std::fprintf(stderr, "iwmerge: --inputs is required\n%s",
                 flags.usage(argv[0]).c_str());
    return 2;
  }

  if (!flags.str("out").empty()) {
    std::vector<std::string> files;
    std::string error;
    if (!store::collect_spill_files(inputs, store::RecordKind::Host, files, &error)) {
      std::fprintf(stderr, "iwmerge: %s\n", error.c_str());
      return 1;
    }
    return rewrite_merged(files, flags.str("out"),
                          static_cast<std::size_t>(flags.u64("segment-bytes")));
  }
  return print_report(inputs);
}
