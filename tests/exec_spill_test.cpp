// The bounded-memory spill path end to end: a scan that streams its
// records into columnar spill files must merge back byte-identical to the
// in-RAM result, for every {process × thread} sharding the operator model
// supports (ZMap-style --shard i/N), in both the stateful-everywhere and
// the two-phase executors. This is the contract tools/iwmerge relies on.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/scan_runner.hpp"
#include "analysis/spill_report.hpp"
#include "core/result.hpp"
#include "inetmodel/internet.hpp"
#include "store/spill.hpp"
#include "testbed.hpp"

namespace iwscan::exec {
namespace {

namespace fs = std::filesystem;

// A fresh small world per run: byte-identity across shardings is
// guaranteed for identically-seeded worlds (a reused loop would have
// advanced its per-flow impairment streams).
struct FreshWorld {
  sim::EventLoop loop;
  sim::Network network{loop, 123};
  model::InternetModel internet;

  FreshWorld() : internet(network, make_config()) { internet.install(); }

  static model::ModelConfig make_config() {
    model::ModelConfig config;
    config.scale_log2 = 12;  // 4 Ki addresses — the smallest supported world
    return config;
  }
};

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("iwscan_exec_spill_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

analysis::ScanOptions base_options(std::uint64_t threads) {
  analysis::ScanOptions options;
  options.protocol = core::ProbeProtocol::Http;
  options.rate_pps = 40'000;
  options.scan_seed = test::env_scan_seed(7);
  options.shards = threads;
  return options;
}

/// Runs one process of an N-process scan on its own fresh world, spilling
/// into `dir`, and appends the spill files it produced.
void run_process_shard(analysis::ScanOptions options, std::uint64_t process,
                       std::uint64_t processes, const fs::path& dir,
                       std::vector<std::string>& host_files) {
  options.process_shard = process;
  options.process_shards = processes;
  options.spill_dir = (dir / ("p" + std::to_string(process))).string();
  options.spill_segment_bytes = 1u << 12;  // force multi-segment spills
  FreshWorld world;
  const analysis::ScanOutput output =
      analysis::run_iw_scan(world.network, world.internet, options);
  EXPECT_TRUE(output.records.empty());  // spill mode keeps records on disk
  host_files.insert(host_files.end(), output.spill_files.begin(),
                    output.spill_files.end());
}

void expect_record_identity(const std::vector<core::HostScanRecord>& got,
                            const std::vector<core::HostScanRecord>& want,
                            const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(got[i] == want[i])
        << label << ": record " << i << " diverges (ip "
        << want[i].ip.to_string() << ")";
  }
}

// ----------------------------------------- stateful-everywhere spills ----

TEST(ExecSpill, SpilledScanMergesBackIdenticalToInRamScan) {
  const fs::path dir = scratch_dir("stateful");
  FreshWorld in_ram_world;
  const analysis::ScanOutput in_ram = analysis::run_iw_scan(
      in_ram_world.network, in_ram_world.internet, base_options(1));
  ASSERT_FALSE(in_ram.records.empty());

  std::vector<std::string> host_files;
  run_process_shard(base_options(1), 0, 1, dir, host_files);
  ASSERT_EQ(host_files.size(), 1u);

  std::vector<core::HostScanRecord> merged;
  std::string error;
  ASSERT_TRUE(store::read_merged<core::HostScanRecord>(host_files, merged, &error))
      << error;
  expect_record_identity(merged, in_ram.records, "single process");
  fs::remove_all(dir);
}

TEST(ExecSpill, ProcessThreadMatrixMergesByteIdenticalToSingleProcess) {
  FreshWorld baseline_world;
  const analysis::ScanOutput baseline = analysis::run_iw_scan(
      baseline_world.network, baseline_world.internet, base_options(1));
  ASSERT_FALSE(baseline.records.empty());

  for (const std::uint64_t processes : {1u, 2u, 4u}) {
    for (const std::uint64_t threads : {1u, 2u}) {
      const std::string label = std::to_string(processes) + " procs x " +
                                std::to_string(threads) + " threads";
      const fs::path dir = scratch_dir("matrix");
      std::vector<std::string> host_files;
      for (std::uint64_t p = 0; p < processes; ++p) {
        run_process_shard(base_options(threads), p, processes, dir, host_files);
      }
      ASSERT_EQ(host_files.size(), processes * threads) << label;

      std::vector<core::HostScanRecord> merged;
      std::string error;
      ASSERT_TRUE(
          store::read_merged<core::HostScanRecord>(host_files, merged, &error))
          << label << ": " << error;
      expect_record_identity(merged, baseline.records, label);
      fs::remove_all(dir);
    }
  }
}

// --------------------------------------------------- two-phase spills ----

TEST(ExecSpill, TwoPhaseSpillMergesIdenticalHostRecords) {
  analysis::ScanOptions options = base_options(1);
  options.two_phase = true;
  options.sweep_rate_pps = 400'000;

  FreshWorld in_ram_world;
  const analysis::ScanOutput in_ram =
      analysis::run_iw_scan(in_ram_world.network, in_ram_world.internet, options);
  ASSERT_FALSE(in_ram.records.empty());

  for (const std::uint64_t processes : {1u, 2u}) {
    const std::string label = "two-phase, " + std::to_string(processes) + " procs";
    const fs::path dir = scratch_dir("two_phase");
    std::vector<std::string> host_files;
    for (std::uint64_t p = 0; p < processes; ++p) {
      run_process_shard(options, p, processes, dir, host_files);
    }
    ASSERT_EQ(host_files.size(), processes) << label;

    std::vector<core::HostScanRecord> merged;
    std::string error;
    ASSERT_TRUE(store::read_merged<core::HostScanRecord>(host_files, merged, &error))
        << label << ": " << error;
    expect_record_identity(merged, in_ram.records, label);
    fs::remove_all(dir);
  }
}

TEST(ExecSpill, CappedTwoPhaseSpillKeepsDeterministicTruncation) {
  analysis::ScanOptions options = base_options(2);
  options.two_phase = true;
  options.sweep_rate_pps = 400'000;
  options.max_promoted_hosts = 64;

  FreshWorld in_ram_world;
  const analysis::ScanOutput in_ram =
      analysis::run_iw_scan(in_ram_world.network, in_ram_world.internet, options);
  ASSERT_EQ(in_ram.records.size(), 64u);
  ASSERT_GT(in_ram.truncated, 0u);

  const fs::path dir = scratch_dir("capped");
  std::vector<std::string> host_files;
  run_process_shard(options, 0, 1, dir, host_files);

  std::vector<core::HostScanRecord> merged;
  std::string error;
  ASSERT_TRUE(store::read_merged<core::HostScanRecord>(host_files, merged, &error))
      << error;
  expect_record_identity(merged, in_ram.records, "capped two-phase");
  fs::remove_all(dir);
}

// ------------------------------------------------------------ progress ----

TEST(ExecSpill, FinalProgressCountsEveryRecordInEveryMode) {
  // Spilled records never cross the merge channel, yet the final snapshot
  // must still count them: RAM and spill report the same totals.
  for (const bool two_phase : {false, true}) {
    for (const std::uint64_t shards : {1u, 2u}) {
      for (const bool spill : {false, true}) {
        const std::string label = std::string(two_phase ? "two-phase" : "stateful") +
                                  ", " + std::to_string(shards) + " shards, " +
                                  (spill ? "spill" : "RAM");
        analysis::ScanOptions options = base_options(shards);
        options.two_phase = two_phase;
        options.sweep_rate_pps = 400'000;
        const fs::path dir = scratch_dir("progress");
        if (spill) options.spill_dir = dir.string();
        std::vector<ProgressSnapshot> snapshots;
        options.progress = [&snapshots](const ProgressSnapshot& snap) {
          snapshots.push_back(snap);
        };
        FreshWorld world;
        const analysis::ScanOutput output =
            analysis::run_iw_scan(world.network, world.internet, options);

        std::vector<core::HostScanRecord> records = output.records;
        if (spill) {
          std::string error;
          ASSERT_TRUE(store::read_merged<core::HostScanRecord>(output.spill_files,
                                                               records, &error))
              << label << ": " << error;
        }
        ASSERT_FALSE(records.empty()) << label;
        ASSERT_FALSE(snapshots.empty()) << label;
        const ProgressSnapshot& final_snap = snapshots.back();
        EXPECT_EQ(final_snap.records_merged, records.size()) << label;
        EXPECT_EQ(final_snap.outstanding, 0u) << label;
        EXPECT_EQ(final_snap.shards_done, shards) << label;
        fs::remove_all(dir);
      }
    }
  }
}

// ------------------------------------------- analysis-layer read path ----

TEST(ExecSpill, SpillSummaryMatchesInRamSummary) {
  FreshWorld in_ram_world;
  const analysis::ScanOutput in_ram = analysis::run_iw_scan(
      in_ram_world.network, in_ram_world.internet, base_options(1));
  const analysis::DatasetSummary want = analysis::summarize(in_ram.records);

  const fs::path dir = scratch_dir("summary");
  std::vector<std::string> host_files;
  run_process_shard(base_options(1), 0, 1, dir, host_files);

  analysis::SpillSummary summary;
  std::string error;
  ASSERT_TRUE(
      analysis::summarize_spill_files({(dir / "p0").string()}, summary, error))
      << error;
  EXPECT_EQ(summary.records, in_ram.records.size());
  EXPECT_EQ(summary.seed, test::env_scan_seed(7));
  EXPECT_EQ(summary.summary.probed, want.probed);
  EXPECT_EQ(summary.summary.reachable, want.reachable);
  EXPECT_EQ(summary.summary.success, want.success);
  EXPECT_EQ(summary.summary.few_data, want.few_data);
  EXPECT_EQ(summary.summary.error, want.error);
  EXPECT_EQ(summary.histogram, analysis::iw_histogram(in_ram.records));
  fs::remove_all(dir);
}

TEST(ExecSpill, MergeLevelValidationSurfacesOperatorMistakes) {
  const fs::path dir = scratch_dir("validation");
  std::vector<std::string> host_files;
  run_process_shard(base_options(1), 0, 2, dir, host_files);

  analysis::ScanOptions other_seed = base_options(1);
  other_seed.scan_seed = test::env_scan_seed(7) + 1;
  other_seed.process_shard = 1;
  other_seed.process_shards = 2;
  other_seed.spill_dir = (dir / "p1").string();
  FreshWorld world;
  const analysis::ScanOutput output =
      analysis::run_iw_scan(world.network, world.internet, other_seed);
  ASSERT_FALSE(output.spill_files.empty());

  // Shard 0 and shard 1 of *different* scans: iwmerge must refuse.
  analysis::SpillSummary summary;
  std::string error;
  EXPECT_FALSE(analysis::summarize_spill_files(
      {(dir / "p0").string(), (dir / "p1").string()}, summary, error));
  EXPECT_NE(error.find("mixed scan seeds"), std::string::npos) << error;

  // A duplicated shard (here: a stray copy of the same spill file) is an
  // overlapping-stride error, not a silent double count.
  const fs::path dup = dir / "host-duplicate.iwspill";
  fs::copy_file(host_files.front(), dup);
  error.clear();
  EXPECT_FALSE(analysis::summarize_spill_files(
      {host_files.front(), dup.string()}, summary, error));
  EXPECT_NE(error.find("overlapping shards"), std::string::npos) << error;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace iwscan::exec
