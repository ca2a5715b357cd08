#include "exec/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>

#include "exec/channel.hpp"
#include "exec/shard_plan.hpp"
#include "exec/thread_pool.hpp"
#include "store/spill.hpp"
#include "util/check.hpp"

namespace iwscan::exec {

namespace {

constexpr net::IPv4Address kScannerAddress{192, 0, 2, 1};
static_assert(kScannerAddress != scan::SweepConfig::scanner_address,
              "the stateful and stateless tiers must run as separate flows, or "
              "the sweep perturbs the estimator and two-phase records stop being "
              "byte-identical to a stateful-everywhere scan");
constexpr std::size_t kChannelCapacity = 1024;
/// The cap threshold that keeps every responsive host.
constexpr std::uint64_t kKeepAll = std::numeric_limits<std::uint64_t>::max();

// ------------------------------------------------ worker → merger messages

/// One host record, RAM mode.
struct TaggedRecord {
  std::uint64_t cycle = 0;  // global permutation-cycle index of the target
  core::HostScanRecord record;
};

/// Spill mode: this many more host records reached the worker's spill
/// file. Sent every progress_interval records and once at the end, so
/// progress stays live without records crossing the channel.
struct RecordsSpilled {
  std::uint64_t count = 0;
};

/// One shard's sweep records, cycle order, moved as a whole (RAM mode).
struct SweepBatch {
  std::vector<scan::SweepRecord> records;
};

/// Capped mode: this shard's sweep finished; the worker now waits for the
/// global truncation threshold before its estimate stage.
struct PhaseOneDone {
  /// This shard's responsive cycle indices, ascending. The merger pools
  /// them to name the K-th smallest index across shards.
  std::vector<std::uint64_t> responsive_cycles;
};

struct ShardDone {
  std::uint64_t shard = 0;
  scan::EngineStats engine;
  scan::SweepStats sweep;
  sim::SimTime sweep_duration{};  // two-phase: the sweep stage
  sim::SimTime duration{};        // the estimate stage
  std::uint64_t promoted = 0;
  std::string spill_file;        // spill mode only: host records
  std::string sweep_spill_file;  // spill mode, two-phase only
};

using Message =
    std::variant<TaggedRecord, RecordsSpilled, SweepBatch, PhaseOneDone, ShardDone>;

// ------------------------------------------------------------- helpers ----

std::vector<core::HostScanRecord> sorted_records(std::vector<TaggedRecord> tagged) {
  // Cycle indices are unique across shards (shard k of n owns exactly the
  // indices ≡ k mod n), so this recovers the shards=1 emission order.
  std::sort(tagged.begin(), tagged.end(),
            [](const TaggedRecord& a, const TaggedRecord& b) {
              return a.cycle < b.cycle;
            });
  std::vector<core::HostScanRecord> records;
  records.reserve(tagged.size());
  for (TaggedRecord& entry : tagged) records.push_back(std::move(entry.record));
  return records;
}

scan::EngineConfig engine_config_for(const ScanOptions& job, const ShardSpec& spec) {
  scan::EngineConfig config;
  config.scanner_address = kScannerAddress;
  config.rate_pps = spec.rate_pps;
  config.max_outstanding = spec.max_outstanding;
  config.seed = job.scan_seed;
  config.budget = job.budget;
  return config;
}

scan::SweepConfig sweep_config_for(const ScanOptions& job, const ShardSpec& spec) {
  scan::SweepConfig config;
  config.target_port = job.probe.port;
  config.rate_pps = job.sweep_rate_pps / static_cast<double>(spec.total_shards);
  config.seed = job.scan_seed;
  return config;
}

/// Upper bound on the records this process can emit: its slice of the
/// allowlist (ceil over process shards), scaled by the sample fraction.
/// Used to pre-size the stateful tier's merge vector so the record path
/// never reallocates mid-scan (pinned in tests/alloc_budget_test.cpp).
std::size_t expected_records(const ScanOptions& job, std::uint64_t address_space) {
  const std::uint64_t per_process =
      (address_space + job.process_shards - 1) / job.process_shards;
  if (job.sample_fraction >= 1.0) return static_cast<std::size_t>(per_process);
  return static_cast<std::size_t>(static_cast<double>(per_process) *
                                  job.sample_fraction) +
         1;
}

store::SpillConfig spill_config_for(const ScanOptions& job, std::uint64_t global_shard,
                                    std::uint64_t global_total) {
  store::SpillConfig config;
  config.directory = job.spill_dir;
  config.segment_bytes = job.spill_segment_bytes;
  config.seed = job.scan_seed;
  config.shard = static_cast<std::uint32_t>(global_shard);
  config.total_shards = static_cast<std::uint32_t>(global_total);
  return config;
}

/// "name value: need ..." — run_scan's message for an out-of-range input.
std::string bad_input(const char* name, double value, const char* need) {
  char text[128];
  std::snprintf(text, sizeof(text), "%s %g: need %s", name, value, need);
  return text;
}

/// Closes a spill writer, treating an I/O failure (disk full, unwritable
/// directory) as fatal — the scan's records would otherwise be lost.
template <class Record>
std::string finish_spill(store::SpillWriter<Record>& writer) {
  const bool flushed = writer.close();
  if (!flushed) {
    std::fprintf(stderr, "iwscan: %s\n", writer.error().c_str());
  }
  IWSCAN_ASSERT(flushed, "spill write failed; see the error above");
  return writer.path();
}

/// Folds a cycle's sweep events (Responsive, then possibly Banner; or
/// Closed) into one SweepRecord per host. Events are appended as they
/// arrive and folded once, at the end: a stable sort by cycle keeps each
/// host's events in arrival order, so the fold equals folding on arrival.
class SweepCollector {
 public:
  void on_event(const scan::SweepEvent& event) { events_.push_back(event); }

  [[nodiscard]] std::vector<scan::SweepRecord> take_sorted() {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const scan::SweepEvent& a, const scan::SweepEvent& b) {
                       return a.cycle < b.cycle;
                     });
    std::size_t hosts = 0;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      hosts += i == 0 || events_[i].cycle != events_[i - 1].cycle ? 1 : 0;
    }
    std::vector<scan::SweepRecord> records;
    records.reserve(hosts);
    for (const scan::SweepEvent& event : events_) {
      if (records.empty() || records.back().cycle != event.cycle) {
        records.emplace_back().cycle = event.cycle;
      }
      fold(records.back(), event);
    }
    events_ = {};
    return records;
  }

 private:
  static void fold(scan::SweepRecord& record, const scan::SweepEvent& event) {
    record.ip = event.source;
    switch (event.kind) {
      case scan::SweepEventKind::Responsive:
        record.responsive = true;
        record.window = event.window;
        record.mss = event.mss;
        break;
      case scan::SweepEventKind::Closed:
        record.closed = true;
        break;
      case scan::SweepEventKind::Banner:
        record.banner_length = event.banner_length;
        record.banner = event.banner;
        break;
    }
  }

  std::vector<scan::SweepEvent> events_;
};

// -------------------------------------------------------------- worker ----

/// Runs sweep → promote → estimate for one shard on `network`. `send`
/// delivers a Message alternative to the merger; `await_threshold` blocks
/// until the merger names the capped-mode truncation threshold.
template <class Send, class AwaitThreshold>
void run_worker(const ScanOptions& job, const ShardSpec& spec, sim::Network& network,
                std::atomic<std::uint64_t>& launched, Send&& send,
                AwaitThreshold&& await_threshold) {
  const std::uint64_t global_total = job.process_shards * spec.total_shards;
  const std::uint64_t global_shard = job.process_shard + job.process_shards * spec.shard;
  scan::TargetGenerator targets(job.allow, job.blocklist, job.scan_seed,
                                job.sample_fraction, global_shard, global_total);
  sim::EventLoop& loop = network.loop();
  ShardDone done;
  done.shard = spec.shard;

  std::optional<store::SpillWriter<core::HostScanRecord>> spill;
  if (!job.spill_dir.empty()) {
    spill.emplace(spill_config_for(job, global_shard, global_total));
  }
  std::uint64_t unreported = 0;  // spilled records not yet counted by the merger
  std::unordered_map<net::IPv4Address, std::uint64_t> cycle_of;
  core::IwProbeModule module(job.probe, [&](const core::HostScanRecord& record) {
    const auto it = cycle_of.find(record.ip);
    const std::uint64_t cycle = it == cycle_of.end() ? 0 : it->second;
    if (it != cycle_of.end()) cycle_of.erase(it);  // one record per host
    if (!spill.has_value()) {
      send(TaggedRecord{cycle, record});
      return;
    }
    spill->append(cycle, record);
    if (++unreported == job.progress_interval) {
      send(RecordsSpilled{unreported});
      unreported = 0;
    }
  });

  auto estimate = [&](scan::TargetSource& source) {
    const sim::SimTime start = loop.now();
    scan::ScanEngine engine(network, engine_config_for(job, spec), source, module);
    engine.set_launch_observer([&](net::IPv4Address ip, std::uint64_t cycle) {
      cycle_of[ip] = cycle;
      launched.fetch_add(1, std::memory_order_relaxed);
    });
    engine.start();
    while (!engine.done() && loop.step()) {
    }
    done.duration = loop.now() - start;
    done.engine = engine.stats();
  };
  auto hand_over_sweep = [&](std::vector<scan::SweepRecord> records) {
    if (!spill.has_value()) {
      send(SweepBatch{std::move(records)});
      return;
    }
    store::SpillWriter<scan::SweepRecord> writer(
        spill_config_for(job, global_shard, global_total));
    for (const scan::SweepRecord& record : records) writer.append(record.cycle, record);
    done.sweep_spill_file = finish_spill(writer);
  };

  if (!job.two_phase) {
    scan::GeneratorTargetSource source(std::move(targets));
    estimate(source);
  } else {
    // Sweep to completion, then estimate the responsive set. A cap first
    // reports that set and waits for the global threshold; stride sharding
    // means every promoted cycle this shard keeps is one it swept.
    std::vector<scan::SweepRecord> swept;
    {
      SweepCollector collector;
      scan::StatelessSweep sweep(
          network, sweep_config_for(job, spec), std::move(targets),
          [&](const scan::SweepEvent& event) { collector.on_event(event); });
      const sim::SimTime start = loop.now();
      sweep.start();
      while (!sweep.done() && loop.step()) {
      }
      done.sweep_duration = loop.now() - start;
      done.sweep = sweep.stats();
      swept = collector.take_sorted();
    }
    std::vector<scan::ListTargetSource::Entry> entries;
    for (const scan::SweepRecord& record : swept) {
      if (record.responsive) entries.emplace_back(record.ip, record.cycle);
    }
    hand_over_sweep(std::move(swept));
    if (job.max_promoted_hosts > 0) {
      PhaseOneDone phase1;
      phase1.responsive_cycles.reserve(entries.size());
      for (const auto& entry : entries) phase1.responsive_cycles.push_back(entry.second);
      send(std::move(phase1));
      const std::uint64_t threshold = await_threshold();
      std::erase_if(entries, [threshold](const scan::ListTargetSource::Entry& entry) {
        return entry.second > threshold;
      });
    }
    done.promoted = entries.size();
    scan::ListTargetSource source(std::move(entries));
    estimate(source);
  }

  if (spill.has_value()) {
    done.spill_file = finish_spill(*spill);
    if (unreported > 0) send(RecordsSpilled{unreported});
  }
  send(std::move(done));
}

// -------------------------------------------------------------- merger ----

/// Takes every worker message, in whatever order the workers produce them,
/// and folds them into one ScanResult whose content is independent of that
/// order. Lives on the calling thread.
class Merger {
 public:
  Merger(const ScanOptions& job, std::uint64_t shard_count,
         const std::atomic<std::uint64_t>& launched,
         BoundedChannel<std::uint64_t>* thresholds)
      : job_(job), launched_(launched), thresholds_(thresholds), done_(shard_count) {
    result_.address_space = scan::TargetGenerator(job.allow, job.blocklist,
                                                  job.scan_seed, job.sample_fraction)
                                .address_space_size();
    if (!job.two_phase && job.spill_dir.empty()) {
      tagged_.reserve(expected_records(job, result_.address_space));
    }
  }

  void operator()(TaggedRecord&& record) {
    tagged_.push_back(std::move(record));
    count(1);
  }

  void operator()(RecordsSpilled&& spilled) { count(spilled.count); }

  void operator()(SweepBatch&& batch) {
    std::vector<scan::SweepRecord>& all = result_.sweep_records;
    if (all.empty()) {
      all = std::move(batch.records);
    } else {
      all.insert(all.end(), std::make_move_iterator(batch.records.begin()),
                 std::make_move_iterator(batch.records.end()));
    }
    ++sweep_batches_;
  }

  void operator()(PhaseOneDone&& phase1) {
    responsive_.insert(responsive_.end(), phase1.responsive_cycles.begin(),
                       phase1.responsive_cycles.end());
    if (++phase1_done_ < done_.size()) return;
    // Cycle indices are globally unique, so after sorting the pooled
    // responsive set, index K-1 carries exactly the K-th smallest index.
    std::sort(responsive_.begin(), responsive_.end());
    const std::uint64_t responsive = responsive_.size();
    const std::uint64_t cap = job_.max_promoted_hosts;
    threshold_ = responsive >= cap ? responsive_[cap - 1] : kKeepAll;
    result_.truncated = responsive - std::min(responsive, cap);
    responsive_ = {};
    if (thresholds_ != nullptr) {
      for (std::size_t i = 0; i < done_.size(); ++i) thresholds_->push(threshold_);
    }
  }

  void operator()(ShardDone&& fin) {
    done_[fin.shard] = std::move(fin);
    ++shards_done_;
    progress();
  }

  [[nodiscard]] bool finished() const noexcept { return shards_done_ == done_.size(); }

  /// Capped mode, shards<=1: the inline worker's PhaseOneDone was a direct
  /// call, so the threshold is already named when the worker asks.
  [[nodiscard]] std::uint64_t threshold() const noexcept { return threshold_; }

  [[nodiscard]] ScanResult merged_result() {
    sim::SimTime sweep_span{};
    sim::SimTime span{};
    for (std::size_t i = 0; i < done_.size(); ++i) {  // fixed shard order
      ShardDone& fin = done_[i];
      if (i == 0) {
        result_.engine = fin.engine;
        result_.sweep = fin.sweep;
      } else {
        result_.engine += fin.engine;
        result_.sweep += fin.sweep;
      }
      sweep_span = std::max(sweep_span, fin.sweep_duration);
      span = std::max(span, fin.duration);
      result_.promoted += fin.promoted;
      if (!fin.spill_file.empty()) {
        result_.spill_files.push_back(std::move(fin.spill_file));
      }
      if (!fin.sweep_spill_file.empty()) {
        result_.sweep_spill_files.push_back(std::move(fin.sweep_spill_file));
      }
    }
    result_.duration = sweep_span + span;
    result_.records = sorted_records(std::move(tagged_));
    if (sweep_batches_ > 1) {
      std::sort(result_.sweep_records.begin(), result_.sweep_records.end(),
                [](const scan::SweepRecord& a, const scan::SweepRecord& b) {
                  return a.cycle < b.cycle;
                });
    }
    return std::move(result_);
  }

 private:
  void count(std::uint64_t records) {
    merged_ += records;
    const std::uint64_t interval = job_.progress_interval;
    if (interval > 0 && merged_ / interval != (merged_ - records) / interval) progress();
  }

  void progress() {
    if (!job_.progress) return;
    ProgressSnapshot snap;
    snap.targets_started = launched_.load(std::memory_order_relaxed);
    snap.records_merged = merged_;
    snap.outstanding = snap.targets_started - merged_;
    snap.shards_done = shards_done_;
    snap.shards_total = done_.size();
    job_.progress(snap);
  }

  const ScanOptions& job_;
  const std::atomic<std::uint64_t>& launched_;
  BoundedChannel<std::uint64_t>* thresholds_;  // shards>1, capped mode
  std::vector<ShardDone> done_;                // indexed by shard
  std::uint64_t shards_done_ = 0;
  std::vector<TaggedRecord> tagged_;
  std::uint64_t merged_ = 0;  // host records taken or spilled
  std::size_t sweep_batches_ = 0;
  std::vector<std::uint64_t> responsive_;
  std::uint64_t phase1_done_ = 0;
  std::uint64_t threshold_ = kKeepAll;
  ScanResult result_;
};

}  // namespace

ScanResult run_scan(const ScanOptions& options, sim::Network& network,
                    model::InternetModel& internet) {
  IWSCAN_ASSERT(network.loop().now() == sim::SimTime::zero(),
                "run_scan needs a fresh world, but this one was used by an "
                "earlier scan; build a new world for every scan");
  IWSCAN_ASSERT(options.process_shards >= 1 &&
                    options.process_shard < options.process_shards,
                ("process_shard " + std::to_string(options.process_shard) +
                 ", process_shards " + std::to_string(options.process_shards) +
                 ": need process_shards >= 1 and process_shard < process_shards")
                    .c_str());
  // A non-positive or NaN rate would otherwise pace at a hidden fallback,
  // and a fraction outside (0, 1] breaks expected_records' size_t cast.
  const auto valid_rate = [](double pps) { return std::isfinite(pps) && pps > 0; };
  IWSCAN_ASSERT(valid_rate(options.rate_pps),
                bad_input("rate_pps", options.rate_pps, "a finite rate > 0").c_str());
  IWSCAN_ASSERT(!options.two_phase || valid_rate(options.sweep_rate_pps),
                bad_input("sweep_rate_pps", options.sweep_rate_pps, "a finite rate > 0")
                    .c_str());
  IWSCAN_ASSERT(options.sample_fraction > 0 && options.sample_fraction <= 1,
                bad_input("sample_fraction", options.sample_fraction, "a value in (0, 1]")
                    .c_str());
  ScanOptions job = options;
  job.probe.protocol = job.protocol;
  job.probe.port = job.protocol == core::ProbeProtocol::Http ? 80 : 443;
  if (job.allow.empty()) job.allow = internet.registry().scan_space();
  const ShardPlan plan = ShardPlan::make(job.shards, job.rate_pps, job.max_outstanding);
  const std::uint64_t shard_count = plan.shards.size();
  std::atomic<std::uint64_t> launched{0};

  if (shard_count == 1) {
    Merger merger(job, 1, launched, nullptr);
    run_worker(
        job, plan.shards.front(), network, launched,
        [&merger](auto&& message) { merger(std::forward<decltype(message)>(message)); },
        [&merger] { return merger.threshold(); });
    return merger.merged_result();
  }

  const bool capped = job.two_phase && job.max_promoted_hosts > 0;
  const std::uint64_t network_seed = network.seed();
  const sim::PathConfig default_path = network.default_path();
  const model::ModelConfig model_config = internet.config();
  BoundedChannel<Message> channel(kChannelCapacity);
  // Capped mode: the merger pushes one copy of the threshold per worker
  // (BoundedChannel is the repo's only sanctioned cross-thread hand-off;
  // see DESIGN.md §9).
  BoundedChannel<std::uint64_t> thresholds(shard_count);
  Merger merger(job, shard_count, launched, &thresholds);

  // Capped mode holds a mid-task barrier (the threshold pop) in every
  // worker, so all shards must be able to run concurrently — one thread
  // each, not capped at hardware concurrency. Workers mostly sleep in
  // virtual time, so oversubscription is harmless.
  ThreadPool pool(capped ? shard_count
                         : std::min<std::size_t>(
                               shard_count,
                               std::max<std::size_t>(
                                   1, std::thread::hardware_concurrency())));
  for (const ShardSpec& spec : plan.shards) {
    pool.submit([&job, spec, network_seed, default_path, model_config, &channel,
                 &launched, &thresholds] {
      sim::EventLoop loop;
      sim::Network world(loop, network_seed);
      world.set_default_path(default_path);
      model::InternetModel internet_model(world, model_config);
      internet_model.install();
      run_worker(
          job, spec, world, launched,
          [&channel](auto&& message) {
            channel.push(std::forward<decltype(message)>(message));
          },
          [&thresholds] { return thresholds.pop().value_or(kKeepAll); });
    });
  }

  while (!merger.finished()) {
    std::optional<Message> message = channel.pop();
    if (!message) break;  // closed early — unreachable in normal operation
    std::visit(merger, std::move(*message));
  }
  pool.wait();
  channel.close();
  thresholds.close();
  return merger.merged_result();
}

}  // namespace iwscan::exec
