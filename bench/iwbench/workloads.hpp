// iwbench workloads: the five batch jobs the benchmark times, the worlds
// they run on, and the record checks every pass must pass.
//
// Every workload is a batch job over a fixed input size. The scanner's own
// pacer is the load (rate_pps in virtual time, closed-loop on session
// completions through max_outstanding), so a pass reports work per wall
// second, not latency at an offered rate. See README.md for why each
// workload exists and which layers it stresses.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/scan_runner.hpp"
#include "core/result.hpp"
#include "inetmodel/internet.hpp"
#include "netsim/event_loop.hpp"
#include "netsim/network.hpp"
#include "store/spill.hpp"

namespace iwscan::iwbench {

enum class Pipeline : std::uint8_t {
  Stateful,      // run_iw_scan, shards=1, records in RAM
  SweepCapped,   // two-phase: stateless sweep, then the lowest-cycle K hosts
  ShardedSpill,  // shards=2 into spill files, then summarize_spill_files
  SpillMerge,    // synthetic records through SpillWriter and MergeReader
};

struct Workload {
  std::string name;
  Pipeline pipeline = Pipeline::Stateful;
  /// log2 of the address space (scans) or of the record count (SpillMerge).
  int scale_log2 = 16;
  model::ModelConfig model;    // `seed` is set per run
  analysis::ScanOptions scan;  // `scan_seed` and `spill_dir` are set per run
};

/// SpillMerge writes one spill file per simulated operator process.
inline constexpr std::uint32_t kSpillProcesses = 4;

/// The named workload at full size, or at the 2^12–2^14 smoke size.
[[nodiscard]] std::optional<Workload> find_workload(std::string_view name, bool smoke);

struct RunOptions {
  std::uint64_t seed = 42;       // world seed: population, paths, impairments
  std::uint64_t scan_seed = 7;   // scanner seed: address order, ISNs
  double seconds = 10;           // measuring budget for the passes
  std::string work_dir;          // spill files go below this directory
  std::string trace_dir;         // traced binary only: Chrome trace output
};

struct World {
  sim::EventLoop loop;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<model::InternetModel> internet;
};

/// World construction plus install(): what setup_s times for a scan.
[[nodiscard]] std::unique_ptr<World> make_world(const Workload& workload,
                                                std::uint64_t seed);

/// The scan options of one run: the workload's, with seeds and spill dir.
[[nodiscard]] analysis::ScanOptions scan_options(const Workload& workload,
                                                 const RunOptions& options);

/// Order-dependent digest over every field of every record; two record
/// streams are byte-identical exactly when their digests and counts match.
class RecordDigest {
 public:
  void add(const core::HostScanRecord& record) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::uint64_t state_ = 0x1b873593cc9e2d51ULL;
  std::uint64_t count_ = 0;
};

/// Estimator accuracy against the simulator's ground truth.
struct Accuracy {
  std::uint64_t success = 0;
  std::uint64_t exact = 0;          // Success with iw_segments == truth
  std::uint64_t false_success = 0;  // Success above truth, FewData bound above truth
  std::uint64_t errors = 0;         // HostOutcome::Error records

  void add(const core::HostScanRecord& record, const model::InternetModel& internet,
           bool tls);
  [[nodiscard]] double exact_share() const noexcept {
    return success == 0 ? 0.0
                        : static_cast<double>(exact) / static_cast<double>(success);
  }
};

/// Directory `name` below the run's work directory.
[[nodiscard]] std::string work_path(const RunOptions& options, const std::string& name);

using HostSpillWriter = store::SpillWriter<core::HostScanRecord>;

/// SpillMerge set-up: kSpillProcesses spill writers under `dir`, writer p
/// owning the cycles congruent to p.
[[nodiscard]] std::vector<std::unique_ptr<HostSpillWriter>> open_spill_writers(
    const RunOptions& options, const std::string& dir);

/// Synthetic SpillMerge record for a global cycle index; every field
/// depends only on (seed, cycle), so the merge side can check each record.
[[nodiscard]] core::HostScanRecord synthetic_record(std::uint64_t seed, std::uint64_t cycle);

/// The SpillMerge write order: a bijection on [0, 2^log2) that scrambles
/// cycle order the way out-of-order session completion does.
[[nodiscard]] constexpr std::uint64_t scrambled_cycle(std::uint64_t i, int log2) {
  return (i * 0x9E3779B1u) & ((std::uint64_t{1} << log2) - 1);
}

/// CPU seconds (user + system) this process has used so far.
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One timed pass of a workload, untraced or traced.
struct PassResult {
  double scan_s = 0;  // wall time of the timed part
  double cpu_s = 0;
  std::uint64_t targets = 0;
  std::uint64_t records = 0;
  std::uint64_t digest = 0;  // RecordDigest of the pass's records
  double exact_share = 0;
  std::vector<std::string> failures;
};

/// Records `what` as a failed check of the pass unless `ok`.
void require(PassResult& pass, bool ok, std::string what);

/// What one binary run reports to run.py.
struct RunReport {
  std::uint64_t passes = 0;
  std::uint64_t attempted = 0;  // targets (records for SpillMerge) over all passes
  std::uint64_t failed = 0;     // of those, the ones in passes that failed a check
  std::uint64_t records = 0;    // records of one pass
  std::uint64_t digest = 0;     // RecordDigest of one pass (all passes agree)
  std::vector<std::string> failures;
  std::vector<Metric> metrics;
};

/// End-to-end metrics from the untraced pipeline.
[[nodiscard]] RunReport run_untraced(const Workload& workload, const RunOptions& options);

/// Per-layer metrics from the traced replay (traced binary only).
[[nodiscard]] RunReport run_traced(const Workload& workload, const RunOptions& options);

[[nodiscard]] double median(std::vector<double> values);

/// Whole passes only: true before the first pass, then while one more pass
/// of the mean length so far still fits in the budget.
[[nodiscard]] bool another_pass_fits(double elapsed_s, std::uint64_t passes,
                                     double budget_s);

/// Folds one pass into the report: counts its targets, and counts them as
/// failed when a check failed or its records differ from the first pass's.
void add_pass(RunReport& report, PassResult pass);

/// Reads spill files back through the K-way merge, checking that cycles
/// strictly increase; folds every record into `digest` and `accuracy`.
/// Returns an empty string, or what failed.
[[nodiscard]] std::string read_spill(const std::vector<std::string>& files,
                                     const model::InternetModel& internet, bool tls,
                                     RecordDigest& digest, Accuracy& accuracy);

}  // namespace iwscan::iwbench
