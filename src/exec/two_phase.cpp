#include "exec/two_phase.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
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

// Must stay distinct from StatelessSweep's address (SweepConfig default):
// the two tiers run as separate flows so phase 1 cannot perturb phase 2.
constexpr net::IPv4Address kScannerAddress{192, 0, 2, 1};
constexpr std::size_t kChannelCapacity = 1024;
/// Responsive hosts buffered between the sweep and the engine before
/// backpressure pauses the sweep's SYN pacing.
constexpr std::size_t kPromotionQueueCapacity = 1024;

struct TaggedRecord {
  std::uint64_t cycle = 0;
  core::HostScanRecord record;
};

struct SweepTagged {
  scan::SweepRecord record;  // carries its own cycle index
};

/// Capped mode only: this shard's sweep finished; the worker now blocks on
/// the global truncation threshold before starting phase 2.
struct PhaseOneDone {
  std::uint64_t shard = 0;
  scan::SweepStats stats;
  sim::SimTime duration{};
  /// This shard's responsive cycle indices, ascending. The aggregator
  /// merges them to name the K-th smallest index across shards — sweep
  /// records themselves never need to transit in spill mode.
  std::vector<std::uint64_t> responsive_cycles;
  std::string sweep_spill_file;  // spill mode only
};

struct ShardDone {
  std::uint64_t shard = 0;
  scan::EngineStats engine;
  scan::SweepStats sweep;  // zero in capped mode (reported via PhaseOneDone)
  sim::SimTime duration{};
  std::uint64_t promoted = 0;
  std::string spill_file;        // spill mode only: phase-2 host records
  std::string sweep_spill_file;  // spill mode, streaming only
};

using Message = std::variant<TaggedRecord, SweepTagged, PhaseOneDone, ShardDone>;

/// The live hand-off between the sweep and the engine (streaming mode).
/// Single-threaded by construction: both endpoints live on one event loop,
/// so push/next/close never race and need no lock.
class PromotionSource final : public scan::TargetSource {
 public:
  explicit PromotionSource(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] Pull next(net::IPv4Address& target, std::uint64_t& cycle) override {
    if (queue_.empty()) return closed_ ? Pull::Exhausted : Pull::Pending;
    target = queue_.front().first;
    cycle = queue_.front().second;
    queue_.pop_front();
    if (on_drain_) on_drain_();  // room again — un-throttle the sweep
    return Pull::Ready;
  }

  void set_wakeup(std::function<void()> wakeup) override {
    wakeup_ = std::move(wakeup);
  }

  void push(net::IPv4Address ip, std::uint64_t cycle) {
    queue_.emplace_back(ip, cycle);
    if (wakeup_) wakeup_();
  }

  /// No further pushes will ever happen (the sweep completed).
  void close() {
    closed_ = true;
    if (wakeup_) wakeup_();
  }

  [[nodiscard]] bool full() const noexcept { return queue_.size() >= capacity_; }

  void set_on_drain(std::function<void()> on_drain) {
    on_drain_ = std::move(on_drain);
  }

 private:
  std::deque<std::pair<net::IPv4Address, std::uint64_t>> queue_;
  std::size_t capacity_;
  bool closed_ = false;
  std::function<void()> wakeup_;
  std::function<void()> on_drain_;
};

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

void sort_by_cycle(std::vector<scan::SweepRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const scan::SweepRecord& a, const scan::SweepRecord& b) {
              return a.cycle < b.cycle;
            });
}

std::vector<core::HostScanRecord> sorted_records(std::vector<TaggedRecord> tagged) {
  std::sort(tagged.begin(), tagged.end(),
            [](const TaggedRecord& a, const TaggedRecord& b) { return a.cycle < b.cycle; });
  std::vector<core::HostScanRecord> records;
  records.reserve(tagged.size());
  for (TaggedRecord& entry : tagged) records.push_back(std::move(entry.record));
  return records;
}

scan::EngineConfig engine_config_for(const ScanJob& job, double rate_pps,
                                     std::size_t max_outstanding) {
  scan::EngineConfig config;
  config.scanner_address = kScannerAddress;
  config.rate_pps = rate_pps;
  config.max_outstanding = max_outstanding;
  config.seed = job.scan_seed;
  config.budget = job.budget;
  return config;
}

scan::SweepConfig sweep_config_for(const TwoPhaseJob& job, double rate_pps) {
  scan::SweepConfig config;  // scanner_address/source_port keep their defaults
  config.target_port = job.scan.probe.port;
  config.rate_pps = rate_pps;
  config.seed = job.scan.scan_seed;
  return config;
}

store::SpillConfig spill_config_for(const ScanJob& job, std::uint64_t global_shard,
                                    std::uint64_t global_total) {
  store::SpillConfig config;
  config.directory = job.spill_dir;
  config.segment_bytes = job.spill_segment_bytes;
  config.seed = job.scan_seed;
  config.shard = static_cast<std::uint32_t>(global_shard);
  config.total_shards = static_cast<std::uint32_t>(global_total);
  return config;
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

/// Spills a finished shard's sweep records (already in cycle order) and
/// returns the file path.
std::string spill_sweep_records(const ScanJob& job, std::uint64_t global_shard,
                                std::uint64_t global_total,
                                const std::vector<scan::SweepRecord>& records) {
  store::SpillWriter<scan::SweepRecord> writer(
      spill_config_for(job, global_shard, global_total));
  for (const scan::SweepRecord& record : records) writer.append(record.cycle, record);
  return finish_spill(writer);
}

/// Promoted hosts awaiting phase 2, in cycle order: (target, cycle index).
using PromotionList = std::vector<scan::ListTargetSource::Entry>;

[[nodiscard]] PromotionList responsive_entries(
    const std::vector<scan::SweepRecord>& records) {
  PromotionList entries;
  for (const scan::SweepRecord& record : records) {
    if (record.responsive) entries.emplace_back(record.ip, record.cycle);
  }
  return entries;
}

struct SweepOutcome {
  std::vector<scan::SweepRecord> records;  // cycle order
  scan::SweepStats stats;
  sim::SimTime duration{};
};

/// Capped-mode phase 1: run this shard's sweep to completion, alone.
SweepOutcome run_sweep_phase(const TwoPhaseJob& job, sim::Network& network,
                             double sweep_rate, std::uint64_t shard,
                             std::uint64_t total_shards) {
  SweepOutcome outcome;
  scan::TargetGenerator targets(job.scan.allow, job.scan.block, job.scan.scan_seed,
                                job.scan.sample_fraction, shard, total_shards);
  SweepCollector collector;
  scan::StatelessSweep sweep(
      network, sweep_config_for(job, sweep_rate), std::move(targets),
      [&](const scan::SweepEvent& event) { collector.on_event(event); });
  const sim::SimTime start = network.loop().now();
  sweep.start();
  while (!sweep.done() && network.loop().step()) {
  }
  outcome.duration = network.loop().now() - start;
  outcome.records = collector.take_sorted();
  outcome.stats = sweep.stats();
  return outcome;
}

struct ListOutcome {
  scan::EngineStats stats;
  sim::SimTime duration{};
};

/// Phase 2 over a pre-resolved promotion list (capped mode), on the same
/// world the sweep ran on.
template <typename Sink>
ListOutcome run_list_phase(const ScanJob& job, sim::Network& network,
                           PromotionList entries, double rate_pps,
                           std::size_t max_outstanding,
                           std::atomic<std::uint64_t>& launched, Sink&& sink) {
  ListOutcome outcome;
  scan::ListTargetSource source(std::move(entries));
  std::unordered_map<net::IPv4Address, std::uint64_t> cycle_of;
  core::IwProbeModule module(job.probe, [&](const core::HostScanRecord& record) {
    const auto it = cycle_of.find(record.ip);
    sink(TaggedRecord{it == cycle_of.end() ? 0 : it->second, record});
  });
  scan::ScanEngine engine(network, engine_config_for(job, rate_pps, max_outstanding),
                          source, module);
  engine.set_launch_observer([&](net::IPv4Address ip, std::uint64_t cycle) {
    cycle_of[ip] = cycle;
    launched.fetch_add(1, std::memory_order_relaxed);
  });
  const sim::SimTime start = network.loop().now();
  engine.start();
  while (!engine.done() && network.loop().step()) {
  }
  outcome.duration = network.loop().now() - start;
  outcome.stats = engine.stats();
  return outcome;
}

struct StreamingOutcome {
  std::vector<scan::SweepRecord> sweep_records;  // cycle order
  scan::SweepStats sweep_stats;
  scan::EngineStats engine_stats;
  sim::SimTime duration{};
  std::uint64_t promoted = 0;
};

/// Streaming mode on one world: sweep and engine run concurrently on the
/// same event loop, coupled by a bounded promotion queue. Backpressure
/// flows sweep-ward only — a full queue pauses SYN pacing, a pop wakes it.
template <typename Sink>
StreamingOutcome run_streaming_world(const TwoPhaseJob& job, sim::Network& network,
                                     double sweep_rate, double engine_rate,
                                     std::size_t max_outstanding, std::uint64_t shard,
                                     std::uint64_t total_shards,
                                     std::atomic<std::uint64_t>& launched,
                                     Sink&& sink) {
  StreamingOutcome outcome;
  scan::TargetGenerator targets(job.scan.allow, job.scan.block, job.scan.scan_seed,
                                job.scan.sample_fraction, shard, total_shards);

  PromotionSource promoted(kPromotionQueueCapacity);
  SweepCollector collector;
  scan::StatelessSweep sweep(network, sweep_config_for(job, sweep_rate),
                             std::move(targets),
                             [&](const scan::SweepEvent& event) {
                               collector.on_event(event);
                               if (event.kind == scan::SweepEventKind::Responsive) {
                                 promoted.push(event.source, event.cycle);
                                 ++outcome.promoted;
                               }
                             });
  sweep.set_throttle([&promoted] { return promoted.full(); });
  promoted.set_on_drain([&sweep] { sweep.wake(); });
  sweep.set_on_complete([&promoted] { promoted.close(); });

  std::unordered_map<net::IPv4Address, std::uint64_t> cycle_of;
  core::IwProbeModule module(job.scan.probe, [&](const core::HostScanRecord& record) {
    const auto it = cycle_of.find(record.ip);
    sink(TaggedRecord{it == cycle_of.end() ? 0 : it->second, record});
  });
  scan::ScanEngine engine(network,
                          engine_config_for(job.scan, engine_rate, max_outstanding),
                          promoted, module);
  engine.set_launch_observer([&](net::IPv4Address ip, std::uint64_t cycle) {
    cycle_of[ip] = cycle;
    launched.fetch_add(1, std::memory_order_relaxed);
  });

  const sim::SimTime start = network.loop().now();
  sweep.start();
  engine.start();
  while ((!sweep.done() || !engine.done()) && network.loop().step()) {
  }
  outcome.duration = network.loop().now() - start;
  outcome.sweep_records = collector.take_sorted();
  outcome.sweep_stats = sweep.stats();
  outcome.engine_stats = engine.stats();
  return outcome;
}

/// Streaming worker: a private identically-seeded world per shard, tagged
/// records streamed into the aggregator's channel, sweep records delivered
/// in bulk once the shard finishes.
void run_streaming_shard(const TwoPhaseJob& job, const ShardSpec& spec,
                         double sweep_rate, std::uint64_t network_seed,
                         const sim::PathConfig& default_path,
                         const model::ModelConfig& model_config,
                         BoundedChannel<Message>& channel,
                         std::atomic<std::uint64_t>& launched) {
  sim::EventLoop loop;
  sim::Network network(loop, network_seed);
  network.set_default_path(default_path);
  model::InternetModel internet(network, model_config);
  internet.install();

  const std::uint64_t global_total = job.scan.process_shards * spec.total_shards;
  const std::uint64_t global_shard =
      job.scan.process_shard + job.scan.process_shards * spec.shard;
  std::optional<store::SpillWriter<core::HostScanRecord>> spill;
  if (!job.scan.spill_dir.empty()) {
    spill.emplace(spill_config_for(job.scan, global_shard, global_total));
  }

  StreamingOutcome outcome = run_streaming_world(
      job, network, sweep_rate, spec.rate_pps, spec.max_outstanding, global_shard,
      global_total, launched, [&](TaggedRecord record) {
        if (spill.has_value()) {
          spill->append(record.cycle, record.record);
        } else {
          channel.push(std::move(record));
        }
      });
  ShardDone done{spec.shard,        outcome.engine_stats, outcome.sweep_stats,
                 outcome.duration,  outcome.promoted,     {},
                 {}};
  if (spill.has_value()) {
    done.spill_file = finish_spill(*spill);
    done.sweep_spill_file =
        spill_sweep_records(job.scan, global_shard, global_total, outcome.sweep_records);
  } else {
    for (scan::SweepRecord& record : outcome.sweep_records) {
      channel.push(SweepTagged{std::move(record)});
    }
  }
  channel.push(std::move(done));
}

/// Capped worker: sweep this shard, report, block on the globally computed
/// truncation threshold, then run phase 2 on the same world. Stride
/// sharding means every promoted cycle this shard keeps is one it swept.
void run_capped_shard(const TwoPhaseJob& job, const ShardSpec& spec,
                      double sweep_rate, std::uint64_t network_seed,
                      const sim::PathConfig& default_path,
                      const model::ModelConfig& model_config,
                      BoundedChannel<Message>& channel,
                      std::atomic<std::uint64_t>& launched,
                      BoundedChannel<std::uint64_t>& threshold_channel) {
  sim::EventLoop loop;
  sim::Network network(loop, network_seed);
  network.set_default_path(default_path);
  model::InternetModel internet(network, model_config);
  internet.install();

  const std::uint64_t global_total = job.scan.process_shards * spec.total_shards;
  const std::uint64_t global_shard =
      job.scan.process_shard + job.scan.process_shards * spec.shard;
  const bool spilling = !job.scan.spill_dir.empty();

  SweepOutcome sweep_out =
      run_sweep_phase(job, network, sweep_rate, global_shard, global_total);
  PromotionList entries = responsive_entries(sweep_out.records);
  PhaseOneDone phase1{spec.shard, sweep_out.stats, sweep_out.duration, {}, {}};
  phase1.responsive_cycles.reserve(entries.size());
  for (const scan::ListTargetSource::Entry& entry : entries) {
    phase1.responsive_cycles.push_back(entry.second);
  }
  if (spilling) {
    phase1.sweep_spill_file =
        spill_sweep_records(job.scan, global_shard, global_total, sweep_out.records);
  } else {
    for (scan::SweepRecord& record : sweep_out.records) {
      channel.push(SweepTagged{std::move(record)});
    }
  }
  channel.push(std::move(phase1));

  // Barrier: the aggregator needs every shard's responsive set before it
  // can name the K-th smallest cycle index. A closed channel (early
  // shutdown) degrades to "keep everything".
  const std::uint64_t threshold =
      threshold_channel.pop().value_or(std::numeric_limits<std::uint64_t>::max());
  std::erase_if(entries, [threshold](const scan::ListTargetSource::Entry& entry) {
    return entry.second > threshold;
  });
  const std::uint64_t promoted = entries.size();

  std::optional<store::SpillWriter<core::HostScanRecord>> spill;
  if (spilling) spill.emplace(spill_config_for(job.scan, global_shard, global_total));
  ListOutcome phase2 = run_list_phase(
      job.scan, network, std::move(entries), spec.rate_pps, spec.max_outstanding,
      launched, [&](TaggedRecord record) {
        if (spill.has_value()) {
          spill->append(record.cycle, record.record);
        } else {
          channel.push(std::move(record));
        }
      });
  ShardDone done{spec.shard, phase2.stats, {}, phase2.duration, promoted, {}, {}};
  if (spill.has_value()) done.spill_file = finish_spill(*spill);
  channel.push(std::move(done));
}

}  // namespace

TwoPhaseResult TwoPhaseRunner::run(sim::Network& network,
                                   model::InternetModel& internet) {
  TwoPhaseResult result;
  {
    scan::TargetGenerator probe(job_.scan.allow, job_.scan.block, job_.scan.scan_seed,
                                job_.scan.sample_fraction);
    result.address_space = probe.address_space_size();
  }

  const bool capped = job_.max_promoted_hosts > 0;
  const bool spilling = !job_.scan.spill_dir.empty();
  std::atomic<std::uint64_t> launched{0};
  std::vector<TaggedRecord> tagged;
  std::uint64_t merged = 0;

  // shards<=1 only: the single-world paths below sink records straight into
  // this writer; shards>1 workers own per-shard writers instead.
  std::optional<store::SpillWriter<core::HostScanRecord>> host_spill;
  if (spilling && job_.scan.shards <= 1) {
    host_spill.emplace(spill_config_for(job_.scan, job_.scan.process_shard,
                                        job_.scan.process_shards));
  }

  auto emit_progress = [&](std::uint64_t shards_done, std::uint64_t shards_total) {
    if (!job_.scan.progress) return;
    ProgressSnapshot snap;
    snap.targets_started = launched.load(std::memory_order_relaxed);
    snap.records_merged = merged;
    snap.outstanding = snap.targets_started - snap.records_merged;
    snap.shards_done = shards_done;
    snap.shards_total = shards_total;
    job_.scan.progress(snap);
  };
  auto record_sink = [&](TaggedRecord record) {
    if (host_spill.has_value()) {
      host_spill->append(record.cycle, record.record);
    } else {
      tagged.push_back(std::move(record));
    }
    ++merged;
    if (job_.scan.progress_interval > 0 && merged % job_.scan.progress_interval == 0) {
      emit_progress(0, std::max<std::uint64_t>(job_.scan.shards, 1));
    }
  };

  if (job_.scan.shards <= 1) {
    if (capped) {
      SweepOutcome sweep_out =
          run_sweep_phase(job_, network, job_.sweep_rate_pps,
                          job_.scan.process_shard, job_.scan.process_shards);
      PromotionList entries = responsive_entries(sweep_out.records);
      const std::uint64_t responsive = entries.size();
      if (responsive > job_.max_promoted_hosts) {
        entries.resize(job_.max_promoted_hosts);  // cycle order: lowest win
      }
      result.truncated = responsive - entries.size();
      result.promoted = entries.size();
      if (spilling) {
        result.sweep_spill_files.push_back(
            spill_sweep_records(job_.scan, job_.scan.process_shard,
                                job_.scan.process_shards, sweep_out.records));
      } else {
        result.sweep_records = std::move(sweep_out.records);
      }
      result.sweep = sweep_out.stats;
      ListOutcome phase2 =
          run_list_phase(job_.scan, network, std::move(entries), job_.scan.rate_pps,
                         job_.scan.max_outstanding, launched, record_sink);
      result.engine = phase2.stats;
      result.duration = sweep_out.duration + phase2.duration;
    } else {
      StreamingOutcome outcome = run_streaming_world(
          job_, network, job_.sweep_rate_pps, job_.scan.rate_pps,
          job_.scan.max_outstanding, job_.scan.process_shard,
          job_.scan.process_shards, launched, record_sink);
      if (spilling) {
        result.sweep_spill_files.push_back(
            spill_sweep_records(job_.scan, job_.scan.process_shard,
                                job_.scan.process_shards, outcome.sweep_records));
      } else {
        result.sweep_records = std::move(outcome.sweep_records);
      }
      result.sweep = outcome.sweep_stats;
      result.engine = outcome.engine_stats;
      result.duration = outcome.duration;
      result.promoted = outcome.promoted;
    }
    if (host_spill.has_value()) {
      result.spill_files.push_back(finish_spill(*host_spill));
    } else {
      result.records = sorted_records(std::move(tagged));
    }
    emit_progress(1, 1);
    return result;
  }

  const ShardPlan plan =
      ShardPlan::make(job_.scan.shards, job_.scan.rate_pps, job_.scan.max_outstanding);
  const std::uint64_t shard_count = plan.shards.size();
  const double sweep_rate =
      job_.sweep_rate_pps / static_cast<double>(shard_count);
  const std::uint64_t network_seed = network.seed();
  const sim::PathConfig default_path = network.default_path();
  const model::ModelConfig model_config = internet.config();

  BoundedChannel<Message> channel(kChannelCapacity);
  // Capped mode: one single-slot reply channel per shard carries the
  // globally computed truncation threshold back to the worker after the
  // phase-1 barrier (BoundedChannel is the repo's only sanctioned
  // cross-thread hand-off; see DESIGN.md §9).
  std::vector<std::unique_ptr<BoundedChannel<std::uint64_t>>> threshold_channels;
  if (capped) {
    threshold_channels.reserve(shard_count);
    for (std::uint64_t i = 0; i < shard_count; ++i) {
      threshold_channels.push_back(std::make_unique<BoundedChannel<std::uint64_t>>(1));
    }
  }

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
    pool.submit([this, spec, sweep_rate, network_seed, default_path, model_config,
                 &channel, &launched, &threshold_channels, capped] {
      if (capped) {
        run_capped_shard(job_, spec, sweep_rate, network_seed, default_path,
                         model_config, channel, launched,
                         *threshold_channels[spec.shard]);
      } else {
        run_streaming_shard(job_, spec, sweep_rate, network_seed, default_path,
                            model_config, channel, launched);
      }
    });
  }

  std::vector<scan::SweepRecord> sweep_records;
  std::vector<std::string> host_spills(shard_count);
  std::vector<std::string> sweep_spills(shard_count);
  sim::SimTime phase1_duration{};
  sim::SimTime phase2_duration{};
  std::uint64_t shards_done = 0;

  if (capped) {
    // Phase-1 barrier: collect every shard's responsive set (as cycle
    // indices — the sweep records themselves stay on disk in spill mode)
    // before truncating.
    std::vector<std::uint64_t> responsive_cycles;
    std::uint64_t phase1_done = 0;
    while (phase1_done < shard_count) {
      auto message = channel.pop();
      if (!message) break;  // closed early — unreachable in normal operation
      if (auto* sweep_record = std::get_if<SweepTagged>(&*message)) {
        sweep_records.push_back(std::move(sweep_record->record));
      } else if (auto* fin = std::get_if<PhaseOneDone>(&*message)) {
        result.sweep += fin->stats;
        phase1_duration = std::max(phase1_duration, fin->duration);
        responsive_cycles.insert(responsive_cycles.end(),
                                 fin->responsive_cycles.begin(),
                                 fin->responsive_cycles.end());
        sweep_spills[fin->shard] = std::move(fin->sweep_spill_file);
        ++phase1_done;
      }
    }
    sort_by_cycle(sweep_records);
    // Cycle indices are globally unique, so after sorting the merged
    // responsive set, index K-1 carries exactly the K-th smallest index.
    std::sort(responsive_cycles.begin(), responsive_cycles.end());
    const std::uint64_t responsive = responsive_cycles.size();
    const std::uint64_t threshold =
        responsive >= job_.max_promoted_hosts
            ? responsive_cycles[job_.max_promoted_hosts - 1]
            : std::numeric_limits<std::uint64_t>::max();
    result.promoted = std::min<std::uint64_t>(responsive, job_.max_promoted_hosts);
    result.truncated = responsive - result.promoted;
    for (auto& reply : threshold_channels) reply->push(threshold);

    while (shards_done < shard_count) {
      auto message = channel.pop();
      if (!message) break;
      if (auto* record = std::get_if<TaggedRecord>(&*message)) {
        record_sink(std::move(*record));
      } else if (auto* fin = std::get_if<ShardDone>(&*message)) {
        result.engine += fin->engine;
        phase2_duration = std::max(phase2_duration, fin->duration);
        host_spills[fin->shard] = std::move(fin->spill_file);
        ++shards_done;
        emit_progress(shards_done, shard_count);
      }
    }
  } else {
    while (shards_done < shard_count) {
      auto message = channel.pop();
      if (!message) break;
      if (auto* record = std::get_if<TaggedRecord>(&*message)) {
        record_sink(std::move(*record));
      } else if (auto* sweep_record = std::get_if<SweepTagged>(&*message)) {
        sweep_records.push_back(std::move(sweep_record->record));
      } else if (auto* fin = std::get_if<ShardDone>(&*message)) {
        result.engine += fin->engine;
        result.sweep += fin->sweep;
        result.promoted += fin->promoted;
        phase1_duration = std::max(phase1_duration, fin->duration);
        host_spills[fin->shard] = std::move(fin->spill_file);
        sweep_spills[fin->shard] = std::move(fin->sweep_spill_file);
        ++shards_done;
        emit_progress(shards_done, shard_count);
      }
    }
    sort_by_cycle(sweep_records);
  }
  pool.wait();
  channel.close();

  for (std::string& path : host_spills) {  // fixed shard order
    if (!path.empty()) result.spill_files.push_back(std::move(path));
  }
  for (std::string& path : sweep_spills) {
    if (!path.empty()) result.sweep_spill_files.push_back(std::move(path));
  }
  result.sweep_records = std::move(sweep_records);
  result.records = sorted_records(std::move(tagged));
  result.duration = phase1_duration + phase2_duration;
  return result;
}

}  // namespace iwscan::exec
