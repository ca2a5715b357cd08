#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <utility>

#include "analysis/spill_report.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace iwscan::iwbench {

namespace {

// Full sizes hold several passes in one run of the benchmark; smoke sizes
// keep all five workloads plus the traced identity checks under 15 s.
Workload http_stateful(bool smoke) {
  Workload w;
  w.name = "http_stateful";
  w.scale_log2 = smoke ? 13 : 15;
  return w;  // the paper's default scan: HTTP, 3 probes x MSS {64,128}, 150 kpps
}

Workload sweep_capped(bool smoke) {
  Workload w;
  w.name = "sweep_capped";
  w.pipeline = Pipeline::SweepCapped;
  w.scale_log2 = smoke ? 14 : 18;
  w.scan.two_phase = true;
  w.scan.sweep_rate_pps = 600'000;
  w.scan.max_promoted_hosts = smoke ? 256 : 512;
  return w;
}

Workload tls_sharded_spill(bool smoke) {
  Workload w;
  w.name = "tls_sharded_spill";
  w.pipeline = Pipeline::ShardedSpill;
  w.scale_log2 = smoke ? 13 : 16;
  w.scan.protocol = core::ProbeProtocol::Tls;
  w.scan.shards = 2;
  return w;
}

Workload hostile_lossy(bool smoke) {
  Workload w;
  w.name = "hostile_lossy";
  w.scale_log2 = smoke ? 13 : 15;
  w.model.adversarial_fraction = 0.05;
  w.model.cdn_fraction = 0.30;
  w.model.loss_rate = 0.02;
  w.model.reorder_rate = 0.01;
  w.model.duplicate_rate = 0.005;
  return w;
}

Workload spill_merge(bool smoke) {
  Workload w;
  w.name = "spill_merge";
  w.pipeline = Pipeline::SpillMerge;
  w.scale_log2 = smoke ? 14 : 21;
  return w;
}

PassResult scan_pass(const Workload& workload, const RunOptions& options) {
  PassResult pass;
  const auto world = make_world(workload, options.seed);

  const analysis::ScanOptions scan = scan_options(workload, options);
  const bool tls = scan.protocol == core::ProbeProtocol::Tls;
  if (!scan.spill_dir.empty()) std::filesystem::remove_all(scan.spill_dir);

  const double cpu_before = cpu_seconds();
  util::Stopwatch watch;
  const analysis::ScanOutput out =
      analysis::run_iw_scan(*world->network, *world->internet, scan);
  analysis::SpillSummary summary;
  std::string error;
  const bool summarized = workload.pipeline != Pipeline::ShardedSpill ||
                          analysis::summarize_spill_files(out.spill_files, summary, error);
  pass.scan_s = watch.elapsed_seconds();
  pass.cpu_s = cpu_seconds() - cpu_before;

  if (workload.pipeline == Pipeline::SweepCapped) {
    pass.targets = out.sweep.targets_probed;
    require(pass, out.sweep.targets_probed == out.address_space,
            "sweep probed " + std::to_string(out.sweep.targets_probed) + " of " +
                std::to_string(out.address_space) + " targets");
    require(pass, out.records.size() == out.promoted,
            std::to_string(out.records.size()) + " records for " +
                std::to_string(out.promoted) + " promoted hosts");
    require(pass, out.promoted == std::min(scan.max_promoted_hosts,
                                           out.promoted + out.truncated),
            "promotion cap not applied");
  } else {
    pass.targets = out.engine.targets_started;
    require(pass, out.engine.targets_started == out.address_space,
            "started " + std::to_string(out.engine.targets_started) + " of " +
                std::to_string(out.address_space) + " targets");
  }

  RecordDigest digest;
  Accuracy accuracy;
  if (workload.pipeline == Pipeline::ShardedSpill) {
    require(pass, summarized, "summarize_spill_files: " + error);
    require(pass, summary.records == out.address_space,
            std::to_string(summary.records) + " summarized records for " +
                std::to_string(out.address_space) + " targets");
    const std::string failure =
        read_spill(out.spill_files, *world->internet, tls, digest, accuracy);
    require(pass, failure.empty(), failure);
    std::filesystem::remove_all(scan.spill_dir);
  } else {
    for (const core::HostScanRecord& record : out.records) {
      digest.add(record);
      accuracy.add(record, *world->internet, tls);
    }
  }
  pass.records = digest.count();
  pass.digest = digest.value();
  pass.exact_share = accuracy.exact_share();
  if (workload.pipeline != Pipeline::SweepCapped) {
    require(pass, pass.records == pass.targets,
            std::to_string(pass.records) + " records for " +
                std::to_string(pass.targets) + " targets");
  }
  return pass;
}

PassResult spill_merge_pass(const Workload& workload, const RunOptions& options) {
  PassResult pass;
  const std::string dir = work_path(options, workload.name);
  std::filesystem::remove_all(dir);

  auto writers = open_spill_writers(options, dir);

  const std::uint64_t total = std::uint64_t{1} << workload.scale_log2;
  pass.targets = total;
  const double cpu_before = cpu_seconds();
  util::Stopwatch watch;
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t cycle = scrambled_cycle(i, workload.scale_log2);
    writers[cycle % writers.size()]->append(cycle, synthetic_record(options.seed, cycle));
  }
  std::vector<std::string> files;
  bool closed = true;
  for (auto& writer : writers) {
    closed = writer->close() && closed;
    files.push_back(writer->path());
  }
  std::string error;
  auto merge = store::open_merge<core::HostScanRecord>(files, &error);
  RecordDigest digest;
  std::uint64_t exact = 0;
  bool increasing = true;
  if (merge.has_value()) {
    std::uint64_t cycle = 0;
    std::uint64_t last = 0;
    core::HostScanRecord record;
    while (merge->next(cycle, record)) {
      increasing = increasing && (digest.count() == 0 || cycle > last);
      last = cycle;
      exact += record == synthetic_record(options.seed, cycle) ? 1 : 0;
      digest.add(record);
    }
  }
  pass.scan_s = watch.elapsed_seconds();
  pass.cpu_s = cpu_seconds() - cpu_before;

  require(pass, closed, "spill write failed");
  require(pass, merge.has_value(), "open_merge: " + error);
  require(pass, !merge.has_value() || merge->ok(),
          merge.has_value() ? "merge: " + merge->error() : "");
  require(pass, increasing, "merged cycles are not strictly increasing");
  require(pass, digest.count() == total,
          std::to_string(digest.count()) + " merged records for " +
              std::to_string(total) + " written");
  require(pass, exact == digest.count(),
          std::to_string(digest.count() - exact) + " merged records differ from "
                                                   "the written ones");
  pass.records = digest.count();
  pass.digest = digest.value();
  pass.exact_share =
      total == 0 ? 0.0 : static_cast<double>(exact) / static_cast<double>(total);
  writers.clear();
  std::filesystem::remove_all(dir);
  return pass;
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name, bool smoke) {
  if (name == "http_stateful") return http_stateful(smoke);
  if (name == "sweep_capped") return sweep_capped(smoke);
  if (name == "tls_sharded_spill") return tls_sharded_spill(smoke);
  if (name == "hostile_lossy") return hostile_lossy(smoke);
  if (name == "spill_merge") return spill_merge(smoke);
  return std::nullopt;
}

std::unique_ptr<World> make_world(const Workload& workload, std::uint64_t seed) {
  auto world = std::make_unique<World>();
  world->network = std::make_unique<sim::Network>(world->loop, seed ^ 1);
  model::ModelConfig config = workload.model;
  config.scale_log2 = workload.scale_log2;
  config.seed = seed;
  world->internet = std::make_unique<model::InternetModel>(*world->network, config);
  world->internet->install();
  return world;
}

analysis::ScanOptions scan_options(const Workload& workload, const RunOptions& options) {
  analysis::ScanOptions scan = workload.scan;
  scan.scan_seed = options.scan_seed;
  if (workload.pipeline == Pipeline::ShardedSpill) {
    scan.spill_dir = work_path(options, workload.name);
  }
  return scan;
}

std::string work_path(const RunOptions& options, const std::string& name) {
  return (std::filesystem::path(options.work_dir) / name).string();
}

std::vector<std::unique_ptr<HostSpillWriter>> open_spill_writers(const RunOptions& options,
                                                                 const std::string& dir) {
  std::vector<std::unique_ptr<HostSpillWriter>> writers;
  for (std::uint32_t p = 0; p < kSpillProcesses; ++p) {
    store::SpillConfig config;
    config.directory = dir;
    config.seed = options.scan_seed;
    config.shard = p;
    config.total_shards = kSpillProcesses;
    writers.push_back(std::make_unique<HostSpillWriter>(config));
  }
  return writers;
}

void RecordDigest::add(const core::HostScanRecord& r) noexcept {
  std::uint64_t h = util::mix64(state_, r.ip.value());
  h = util::mix64(h, (std::uint64_t{static_cast<std::uint8_t>(r.outcome)} << 56) |
                         (std::uint64_t{r.observed_mss} << 32) | r.iw_segments);
  h = util::mix64(h, r.iw_bytes);
  h = util::mix64(h, (std::uint64_t{r.lower_bound} << 32) | r.iw_segments_b);
  h = util::mix64(h, r.iw_bytes_b);
  h = util::mix64(h, (std::uint64_t{r.observed_mss_b} << 48) |
                         (std::uint64_t{r.fin_seen} << 40) |
                         (std::uint64_t{r.reorder_seen} << 32) |
                         (std::uint64_t{r.loss_suspected} << 24) |
                         (std::uint64_t{static_cast<std::uint8_t>(r.anomaly)} << 16) |
                         (std::uint64_t{r.probes_run} << 8) | r.connections_used);
  state_ = h;
  ++count_;
}

void Accuracy::add(const core::HostScanRecord& record, const model::InternetModel& internet,
                   bool tls) {
  switch (record.outcome) {
    case core::HostOutcome::Success: {
      ++success;
      const std::uint32_t truth = internet.truth(record.ip).true_iw_segments(tls, 64);
      if (record.iw_segments == truth) ++exact;
      if (record.iw_segments > truth) ++false_success;
      break;
    }
    case core::HostOutcome::FewData:
      if (record.lower_bound > internet.truth(record.ip).true_iw_segments(tls, 64)) {
        ++false_success;
      }
      break;
    case core::HostOutcome::Error: ++errors; break;
    case core::HostOutcome::Unreachable: break;
  }
}

core::HostScanRecord synthetic_record(std::uint64_t seed, std::uint64_t cycle) {
  const std::uint64_t h = util::mix64(util::mix64(0x51D0FF5EEDULL, seed), cycle);
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

double cpu_seconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

bool another_pass_fits(double elapsed_s, std::uint64_t passes, double budget_s) {
  return passes == 0 || elapsed_s * static_cast<double>(passes + 1) /
                                static_cast<double>(passes) <=
                            budget_s;
}

void require(PassResult& pass, bool ok, std::string what) {
  if (!ok) pass.failures.push_back(std::move(what));
}

void add_pass(RunReport& report, PassResult pass) {
  if (report.passes == 0) {
    report.records = pass.records;
    report.digest = pass.digest;
  } else if (pass.records != report.records || pass.digest != report.digest) {
    pass.failures.push_back("pass " + std::to_string(report.passes + 1) +
                            " produced different records than pass 1");
  }
  ++report.passes;
  report.attempted += pass.targets;
  if (!pass.failures.empty()) report.failed += pass.targets;
  for (std::string& failure : pass.failures) report.failures.push_back(std::move(failure));
}

std::string read_spill(const std::vector<std::string>& files,
                       const model::InternetModel& internet, bool tls, RecordDigest& digest,
                       Accuracy& accuracy) {
  std::string error;
  auto merge = store::open_merge<core::HostScanRecord>(files, &error);
  if (!merge.has_value()) return "open_merge: " + error;
  std::uint64_t cycle = 0;
  std::uint64_t last = 0;
  core::HostScanRecord record;
  while (merge->next(cycle, record)) {
    if (digest.count() > 0 && cycle <= last) {
      return "merged cycles are not strictly increasing";
    }
    last = cycle;
    digest.add(record);
    accuracy.add(record, internet, tls);
  }
  return merge->ok() ? std::string() : "merge: " + merge->error();
}

RunReport run_untraced(const Workload& workload, const RunOptions& options) {
  RunReport report;
  std::vector<double> setup_s;
  std::vector<double> scan_s;
  std::vector<double> cpu_s;
  std::vector<double> rate;
  double exact_share = 0;
  util::Stopwatch budget;
  while (another_pass_fits(budget.elapsed_seconds(), report.passes, options.seconds)) {
    // Set-up takes well under a millisecond, so it is timed on its own many
    // times before each pass, sampling the same machine state the pass sees;
    // the pass then builds its own world untimed.
    constexpr int kSetupsPerPass = 25;
    for (int i = 0; i < kSetupsPerPass; ++i) {
      util::Stopwatch watch;
      if (workload.pipeline == Pipeline::SpillMerge) {
        const auto writers = open_spill_writers(options, work_path(options, workload.name));
        setup_s.push_back(watch.elapsed_seconds());
      } else {
        const auto world = make_world(workload, options.seed);
        setup_s.push_back(watch.elapsed_seconds());
      }
    }
    PassResult pass = workload.pipeline == Pipeline::SpillMerge
                          ? spill_merge_pass(workload, options)
                          : scan_pass(workload, options);
    if (report.passes == 0) exact_share = pass.exact_share;
    scan_s.push_back(pass.scan_s);
    cpu_s.push_back(pass.cpu_s);
    rate.push_back(pass.scan_s > 0 ? static_cast<double>(pass.targets) / pass.scan_s : 0);
    add_pass(report, std::move(pass));
  }
  report.metrics = {
      {"setup_s", median(setup_s), "s"},
      {"scan_s", median(scan_s), "s"},
      {"targets_per_s", median(rate), "targets/s"},
      {"cpu_s", median(cpu_s), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"exact_iw_share", exact_share, "ratio"},
  };
  return report;
}

}  // namespace iwscan::iwbench
