// Bounded-memory datapath bench: columnar spill write, K-way streaming
// merge, and the RSS ceiling that makes whole-IPv4 result sets feasible.
//
// The in-RAM result path costs 2^32 × sizeof(HostScanRecord) ≈ 170 GB at
// full IPv4 scale; the spill path (store/spill.hpp) caps resident memory at
// O(segment) per worker no matter how many targets complete. This bench
// pins that claim with numbers the CI regression checker gates on:
//
//   spill_write_rate   records/s through SpillWriter::append + flush, at
//                      2^24 records split over 4 process shards — with
//                      peak_rss_bytes as a hard ceiling (the write phase
//                      must not buffer the result set);
//   merge_read_rate    records/s through the 4-way SegmentReader/
//                      MergeReader heap merge, with cycle-order and
//                      content-checksum verification.
//
// Records are synthesized (the simulated-world model is itself O(hosts) in
// RAM, so driving 2^24 live sessions would measure the model, not the
// store); synthesis uses the same wire codecs, shard layout and cycle
// scrambling a real multi-process scan produces. A small end-to-end scan
// (--scan-scale) then pins spilled == in-RAM equality on the live pipeline.
#define IWSCAN_COUNT_ALLOCATIONS
#include "util/alloc_stats.hpp"

#include <sys/resource.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "store/spill.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

using namespace iwscan;

namespace {

/// Deterministic host record for global cycle index `cycle`; every field
/// depends only on the cycle, so writer and verifier agree without a
/// shared table.
core::HostScanRecord synthetic_record(std::uint64_t cycle) {
  const std::uint64_t h = util::mix64(0x51D0FF5EEDULL, cycle);
  core::HostScanRecord record;
  record.ip = net::IPv4Address(static_cast<std::uint32_t>(h >> 32));
  record.outcome = static_cast<core::HostOutcome>(h & 0x03u);
  record.iw_segments = static_cast<std::uint32_t>((h >> 8) & 0x3F);
  record.iw_bytes = static_cast<std::uint64_t>(record.iw_segments) * 1460;
  record.observed_mss = static_cast<std::uint16_t>(536 + (h & 0x3FF));
  record.lower_bound = static_cast<std::uint32_t>((h >> 16) & 0x0F);
  record.iw_segments_b = record.iw_segments / 2;
  record.iw_bytes_b = record.iw_bytes;
  record.observed_mss_b = static_cast<std::uint16_t>(record.observed_mss * 2);
  record.fin_seen = (h & 0x10u) != 0;
  record.reorder_seen = (h & 0x20u) != 0;
  record.loss_suspected = (h & 0x40u) != 0;
  record.anomaly = static_cast<core::ProbeAnomaly>((h >> 24) % 12);
  record.probes_run = static_cast<std::uint8_t>(1 + (h & 0x07u));
  record.connections_used = record.probes_run;
  return record;
}

/// Order-independent content checksum so the merge phase can prove it
/// delivered exactly the written records, not just the right count.
std::uint64_t record_digest(std::uint64_t cycle, const core::HostScanRecord& r) {
  std::uint64_t d = util::mix64(cycle, r.ip.value());
  d = util::mix64(d, (std::uint64_t{r.iw_segments} << 32) | r.lower_bound);
  d = util::mix64(d, r.iw_bytes ^ r.observed_mss);
  return d;
}

std::uint64_t peak_rss_bytes() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}


}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_common_flags(flags);
  flags.define_u64("records-log2", 24,
                   "log2 of the synthetic record count pushed through the "
                   "spill datapath");
  flags.define_u64("processes", 4, "simulated operator processes (spill shards)");
  flags.define_u64("segment-bytes", store::kDefaultSegmentBytes,
                   "spill segment size in bytes");
  flags.define_u64("scan-scale", 12,
                   "log2 address-space size for the end-to-end spilled-scan "
                   "equality check",
                   model::ModelConfig::kMinScaleLog2, model::ModelConfig::kMaxScaleLog2);
  flags.define_string("json", "",
                      "write machine-readable results (rates, RSS ceiling) "
                      "to this path");
  bench::parse_or_exit(flags, argc, argv);

  bench::print_header("store/: columnar spill + streaming merge at 2^24 scale",
                      "the §3.4 operator model (bounded-memory variant)");

  const std::uint64_t total = std::uint64_t{1} << flags.u64("records-log2");
  const std::uint64_t processes = std::max<std::uint64_t>(1, flags.u64("processes"));
  const auto segment_bytes = static_cast<std::size_t>(flags.u64("segment-bytes"));
  const std::uint64_t scan_seed = flags.u64("scan-seed");

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "iwscan_bench_spill";
  std::error_code ec;
  fs::remove_all(dir, ec);

  // --- Phase 1: write 2^records-log2 records through `processes` writers.
  // The multiplicative bijection scrambles cycle order (records complete
  // out of order in a real scan), so segments overlap and the merge below
  // has real K-way work to do. Shard p owns cycles ≡ p (mod processes),
  // exactly like --shard p/N.
  std::vector<std::unique_ptr<store::SpillWriter<core::HostScanRecord>>> writers;
  std::vector<std::string> files;
  for (std::uint64_t p = 0; p < processes; ++p) {
    store::SpillConfig config;
    config.directory = dir.string();
    config.segment_bytes = segment_bytes;
    config.seed = scan_seed;
    config.shard = static_cast<std::uint32_t>(p);
    config.total_shards = static_cast<std::uint32_t>(processes);
    writers.push_back(
        std::make_unique<store::SpillWriter<core::HostScanRecord>>(config));
  }

  const std::uint64_t mask = total - 1;
  std::uint64_t write_digest = 0;
  util::Stopwatch write_watch;
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t cycle = (i * 0x9E3779B1u) & mask;  // odd ⇒ bijection
    const core::HostScanRecord record = synthetic_record(cycle);
    write_digest ^= record_digest(cycle, record);
    writers[cycle % processes]->append(cycle, record);
  }
  std::uint64_t segments = 0;
  std::uint64_t bytes_written = 0;
  for (auto& writer : writers) {
    if (!writer->close()) {
      std::fprintf(stderr, "spill write failed: %s\n", writer->error().c_str());
      return 1;
    }
    segments += writer->segments_flushed();
    files.push_back(writer->path());
    bytes_written += fs::file_size(writer->path());
  }
  const double write_seconds = write_watch.elapsed_seconds();
  // Snapshot before the merge maps the files back in: this is the scan-side
  // RSS claim — writing O(targets) records must cost O(segment) memory.
  const std::uint64_t write_rss = peak_rss_bytes();
  writers.clear();

  const double write_rate =
      write_seconds > 0 ? static_cast<double>(total) / write_seconds : 0.0;
  std::printf("wrote %llu records into %llu files (%llu segments, %.1f MiB) "
              "in %.2f s — %.0f records/s\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(processes),
              static_cast<unsigned long long>(segments),
              static_cast<double>(bytes_written) / (1024.0 * 1024.0),
              write_seconds, write_rate);
  std::printf("peak RSS after write: %.1f MiB (in-RAM result set would be "
              "%.1f MiB)\n",
              static_cast<double>(write_rss) / (1024.0 * 1024.0),
              static_cast<double>(total * sizeof(core::HostScanRecord)) /
                  (1024.0 * 1024.0));

  // --- Phase 2: K-way merge back in global cycle order, verifying both the
  // order contract (MergeReader enforces strict increase) and the content.
  std::string error;
  auto merge = store::open_merge<core::HostScanRecord>(files, &error);
  if (!merge.has_value()) {
    std::fprintf(stderr, "open_merge failed: %s\n", error.c_str());
    return 1;
  }
  std::uint64_t read_digest = 0;
  std::uint64_t read_count = 0;
  std::uint64_t cycle = 0;
  core::HostScanRecord record;
  util::Stopwatch merge_watch;
  while (merge->next(cycle, record)) {
    read_digest ^= record_digest(cycle, record);
    ++read_count;
  }
  const double merge_seconds = merge_watch.elapsed_seconds();
  if (!merge->ok()) {
    std::fprintf(stderr, "merge failed: %s\n", merge->error().c_str());
    return 1;
  }
  if (read_count != total || read_digest != write_digest) {
    std::fprintf(stderr,
                 "merge mismatch: %llu/%llu records, digest %016llx vs "
                 "%016llx\n",
                 static_cast<unsigned long long>(read_count),
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(read_digest),
                 static_cast<unsigned long long>(write_digest));
    return 1;
  }
  const double merge_rate =
      merge_seconds > 0 ? static_cast<double>(total) / merge_seconds : 0.0;
  std::printf("merged %llu records back in cycle order in %.2f s — %.0f "
              "records/s (digest ok)\n",
              static_cast<unsigned long long>(read_count), merge_seconds,
              merge_rate);

  // --- Phase 3: end-to-end equality on the live pipeline at a small scale:
  // a spilled scan's merged records must equal the in-RAM scan's records.
  bool identity_ok = true;
  {
    // The 2^24 record phases never build a world; this check builds two
    // at the smaller --scan-scale.
    model::ModelConfig scan_config = bench::model_config(flags);
    scan_config.scale_log2 = static_cast<int>(flags.u64("scan-scale"));
    auto in_ram_world = bench::make_world(scan_config);
    analysis::ScanOptions options =
        bench::scan_options(flags, core::ProbeProtocol::Http);
    options.rate_pps = 100'000;
    const auto in_ram =
        analysis::run_iw_scan(*in_ram_world.network, *in_ram_world.internet, options);

    auto spill_world = bench::make_world(scan_config);
    options.spill_dir = (dir / "e2e").string();
    options.spill_segment_bytes = 1u << 14;  // many segments, small scan
    const auto spilled =
        analysis::run_iw_scan(*spill_world.network, *spill_world.internet, options);

    std::vector<core::HostScanRecord> merged;
    if (!store::read_merged(spilled.spill_files, merged, &error)) {
      std::fprintf(stderr, "e2e merge failed: %s\n", error.c_str());
      return 1;
    }
    identity_ok = merged == in_ram.records;
    std::printf("end-to-end: spilled scan == in-RAM scan at 2^%llu hosts: %s "
                "(%zu records)\n",
                static_cast<unsigned long long>(flags.u64("scan-scale")),
                identity_ok ? "ok" : "MISMATCH", merged.size());
  }
  fs::remove_all(dir, ec);
  if (!identity_ok) return 1;

  if (!flags.str("json").empty()) {
    std::FILE* out = std::fopen(flags.str("json").c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", flags.str("json").c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"bench_spill\",\n");
    std::fprintf(out,
                 "  \"config\": {\"records\": %llu, \"processes\": %llu, "
                 "\"segment_bytes\": %llu, \"scan_seed\": %llu},\n",
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(processes),
                 static_cast<unsigned long long>(segment_bytes),
                 static_cast<unsigned long long>(scan_seed));
    std::fprintf(out,
                 "  \"write\": {\"wall_seconds\": %.6f, \"segments\": %llu, "
                 "\"file_bytes\": %llu},\n",
                 write_seconds, static_cast<unsigned long long>(segments),
                 static_cast<unsigned long long>(bytes_written));
    std::fprintf(out, "  \"merge\": {\"wall_seconds\": %.6f},\n", merge_seconds);
    // The regression-checker contract (tools/perf/check_bench_regression.py):
    // rate floors plus the peak_rss_bytes ceiling that pins bounded memory.
    std::fprintf(out, "  \"benchmarks\": [\n");
    std::fprintf(out,
                 "    {\"name\": \"spill_write_rate\", \"items_per_second\": "
                 "%.1f, \"peak_rss_bytes\": %llu},\n",
                 write_rate, static_cast<unsigned long long>(write_rss));
    std::fprintf(out,
                 "    {\"name\": \"merge_read_rate\", \"items_per_second\": "
                 "%.1f}\n",
                 merge_rate);
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }
  return 0;
}
