#include "exec/executor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
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

/// A shard's private world, seeded like the caller's (shards>1).
struct World {
  World(const sim::Network& like_network, const model::InternetModel& like_internet)
      : network(loop, like_network.seed()), internet(network, like_internet.config()) {
    network.set_default_path(like_network.default_path());
    internet.install();
  }
  sim::EventLoop loop;
  sim::Network network;
  model::InternetModel internet;
};

// ------------------------------------------------ worker → merger messages

/// A host record and its target's global permutation-cycle index.
struct CycleRecord {
  std::uint64_t cycle = 0;
  core::HostScanRecord record;
};

/// This many more host records reached the shard's vector or spill file:
/// sent every progress_interval records and at the end, for live progress.
struct RecordsKept {
  std::uint64_t count = 0;
};

/// A finished shard, with its records as vectors (RAM) or files (spill).
struct ShardDone {
  std::uint64_t shard = 0;
  scan::EngineStats engine;
  scan::SweepStats sweep;
  sim::SimTime sweep_duration{};  // two-phase: the sweep stage
  sim::SimTime duration{};        // the estimate stage
  std::uint64_t promoted = 0;
  std::uint64_t truncated = 0;       // responsive, dropped by the cap
  std::vector<CycleRecord> records;  // completion order
  std::string spill_file;
};

/// A swept shard and the responsive hosts it may promote, by cycle. Round 1
/// of a sharded capped scan sends it with the world the sweep swept.
struct Swept {
  ShardDone done;
  std::vector<scan::ListTargetSource::Entry> responsive;
  std::unique_ptr<World> world;
};

using Message = std::variant<RecordsKept, Swept, ShardDone>;

// ------------------------------------------------------------- helpers ----

/// Moves `from` to the end of `to`; takes `from`'s buffer if `to` is empty
/// and has no room for it.
template <class T>
void append(std::vector<T>& to, std::vector<T>& from) {
  if (to.empty() && to.capacity() < from.size()) std::swap(to, from);
  to.insert(to.end(), std::make_move_iterator(from.begin()),
            std::make_move_iterator(from.end()));
  from = {};
}

/// This thread shard's (index, count) among every process's thread shards.
std::pair<std::uint64_t, std::uint64_t> global_shard(const ScanOptions& job,
                                                     const ShardSpec& spec) {
  return {job.process_shard + job.process_shards * spec.shard,
          job.process_shards * spec.total_shards};
}

scan::TargetGenerator shard_targets(const ScanOptions& job, const ShardSpec& spec) {
  const auto [shard, total] = global_shard(job, spec);
  return {job.allow, job.blocklist, job.scan_seed, job.sample_fraction, shard, total};
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
/// allowlist (ceil over process shards), scaled by the sample fraction. A
/// stateful shard pre-sizes its record vector to its share, so the record
/// path never reallocates mid-scan (pinned in tests/alloc_budget_test.cpp).
std::size_t expected_records(const ScanOptions& job, std::uint64_t address_space) {
  const std::uint64_t per_process =
      (address_space + job.process_shards - 1) / job.process_shards;
  if (job.sample_fraction >= 1.0) return static_cast<std::size_t>(per_process);
  return static_cast<std::size_t>(static_cast<double>(per_process) *
                                  job.sample_fraction) +
         1;
}

store::SpillConfig spill_config_for(const ScanOptions& job, const ShardSpec& spec) {
  const auto [shard, total] = global_shard(job, spec);
  store::SpillConfig config;
  config.directory = job.spill_dir;
  config.segment_bytes = job.spill_segment_bytes;
  config.seed = job.scan_seed;
  config.shard = static_cast<std::uint32_t>(shard);
  config.total_shards = static_cast<std::uint32_t>(total);
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
std::string finish_spill(store::SpillWriter<core::HostScanRecord>& writer) {
  const bool flushed = writer.close();
  if (!flushed) {
    std::fprintf(stderr, "iwscan: %s\n", writer.error().c_str());
  }
  IWSCAN_ASSERT(flushed, "spill write failed; see the error above");
  return writer.path();
}

// -------------------------------------------------------------- stages ----

/// Sweep stage: sweeps this shard's stride of the space to completion.
Swept sweep_shard(const ScanOptions& job, const ShardSpec& spec, sim::Network& network) {
  Swept swept;
  swept.done.shard = spec.shard;
  {
    const auto keep = [&swept](const scan::SweepEvent& event) {
      if (event.kind == scan::SweepEventKind::Responsive) {
        swept.responsive.emplace_back(event.source, event.cycle);
      }
    };
    scan::StatelessSweep sweep(network, sweep_config_for(job, spec),
                               shard_targets(job, spec), keep);
    const sim::SimTime start = network.loop().now();
    sweep.start();
    while (!sweep.done() && network.loop().step()) {
    }
    swept.done.sweep_duration = network.loop().now() - start;
    swept.done.sweep = sweep.stats();
  }
  // Promote in cycle order; each cycle is reported at most once.
  std::sort(swept.responsive.begin(), swept.responsive.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return swept;
}

/// Estimate stage: probes every target of `source`, keeping each host
/// record in `done` (RAM mode, pre-sized to `expected`) or in the shard's
/// spill file, and sending only RecordsKept counts.
template <class Send>
ShardDone estimate_shard(const ScanOptions& job, const ShardSpec& spec,
                         sim::Network& network, scan::TargetSource& source,
                         std::size_t expected, std::atomic<std::uint64_t>& launched,
                         ShardDone done, Send&& send) {
  std::optional<store::SpillWriter<core::HostScanRecord>> spill;
  if (!job.spill_dir.empty()) spill.emplace(spill_config_for(job, spec));
  if (!spill.has_value()) done.records.reserve(expected);
  std::uint64_t unreported = 0;  // kept records not yet counted by the merger
  // Sessions emit only while the engine runs, and before they finish, so
  // the engine still holds the emitting session's launch cycle.
  const scan::ScanEngine* running = nullptr;
  core::IwProbeModule module(job.probe, [&](const core::HostScanRecord& record) {
    const std::uint64_t cycle = running->session_cycle(record.ip);
    if (spill.has_value()) {
      spill->append(cycle, record);
    } else {
      done.records.push_back({cycle, record});
    }
    if (++unreported == job.progress_interval) {
      send(RecordsKept{unreported});
      unreported = 0;
    }
  });
  {
    const sim::SimTime start = network.loop().now();
    scan::ScanEngine engine(network, engine_config_for(job, spec), source, module);
    running = &engine;
    engine.set_launch_observer([&](net::IPv4Address, std::uint64_t) {
      launched.fetch_add(1, std::memory_order_relaxed);
    });
    engine.start();
    while (!engine.done() && network.loop().step()) {
    }
    done.duration = network.loop().now() - start;
    done.engine = engine.stats();
  }
  if (spill.has_value()) done.spill_file = finish_spill(*spill);
  if (unreported > 0) send(RecordsKept{unreported});
  return done;
}

/// Promote + estimate stages of a swept shard, on the world it swept: the
/// responsive hosts whose cycle is at most `threshold`. Stride sharding
/// means every cycle a shard keeps is one it swept.
template <class Send>
ShardDone estimate_swept(const ScanOptions& job, const ShardSpec& spec,
                         sim::Network& network, Swept swept, std::uint64_t threshold,
                         std::atomic<std::uint64_t>& launched, Send&& send) {
  const std::size_t responsive = swept.responsive.size();
  std::erase_if(swept.responsive, [threshold](const scan::ListTargetSource::Entry& entry) {
    return entry.second > threshold;
  });
  swept.done.promoted = swept.responsive.size();
  swept.done.truncated = responsive - swept.done.promoted;
  scan::ListTargetSource source(std::move(swept.responsive));
  return estimate_shard(job, spec, network, source, swept.done.promoted, launched,
                        std::move(swept.done), send);
}

/// The cap threshold: the K-th smallest responsive cycle over all shards'
/// sweeps, or kKeepAll without a cap or with fewer than K responsive hosts.
/// Cycle indices are globally unique, so exactly K hosts lie at or below.
std::uint64_t cap_threshold(std::span<const Swept> swept, std::uint64_t cap) {
  if (cap == 0) return kKeepAll;
  std::vector<std::uint64_t> cycles;
  for (const Swept& shard : swept) {
    for (const auto& entry : shard.responsive) cycles.push_back(entry.second);
  }
  if (cycles.size() < cap) return kKeepAll;
  const auto kth = cycles.begin() + static_cast<std::ptrdiff_t>(cap - 1);
  std::nth_element(cycles.begin(), kth, cycles.end());
  return *kth;
}

/// Every stage of one shard on `network`. The cap threshold comes from this
/// shard's sweep alone, which is global only in a one-shard scan; a sharded
/// capped scan runs the stages as two rounds instead (run_scan).
template <class Send>
ShardDone run_shard(const ScanOptions& job, const ShardSpec& spec, sim::Network& network,
                    std::atomic<std::uint64_t>& launched, Send&& send) {
  if (job.two_phase) {
    Swept swept = sweep_shard(job, spec, network);
    const std::uint64_t threshold = cap_threshold({&swept, 1}, job.max_promoted_hosts);
    return estimate_swept(job, spec, network, std::move(swept), threshold, launched, send);
  }
  scan::TargetGenerator targets = shard_targets(job, spec);
  const std::size_t share =
      (expected_records(job, targets.address_space_size()) + spec.total_shards - 1) /
      spec.total_shards;
  scan::GeneratorTargetSource source(std::move(targets));
  ShardDone done;
  done.shard = spec.shard;
  return estimate_shard(job, spec, network, source, share, launched, std::move(done), send);
}

// -------------------------------------------------------------- merger ----

/// Takes every worker message, in whatever order the workers produce them,
/// and folds them into one ScanResult whose content is independent of that
/// order. Lives on the calling thread.
class Merger {
 public:
  Merger(const ScanOptions& job, std::uint64_t shard_count,
         const std::atomic<std::uint64_t>& launched)
      : job_(job), launched_(launched), done_(shard_count) {
    result_.address_space = scan::TargetGenerator(job.allow, job.blocklist,
                                                  job.scan_seed, job.sample_fraction)
                                .address_space_size();
    if (shard_count > 1 && !job.two_phase && job.spill_dir.empty()) {
      tagged_.reserve(expected_records(job, result_.address_space));
    }
  }

  void operator()(RecordsKept&& kept) {
    merged_ += kept.count;
    const std::uint64_t interval = job_.progress_interval;
    if (interval > 0 && merged_ / interval != (merged_ - kept.count) / interval) {
      progress();
    }
  }

  void operator()(Swept&& swept) { swept_.push_back(std::move(swept)); }

  void operator()(ShardDone&& fin) {
    append(tagged_, fin.records);
    done_[fin.shard] = std::move(fin);
    ++shards_done_;
    progress();
  }

  [[nodiscard]] bool swept_all() const noexcept { return swept_.size() == done_.size(); }
  [[nodiscard]] bool finished() const noexcept { return shards_done_ == done_.size(); }
  [[nodiscard]] std::vector<Swept>& swept() noexcept { return swept_; }

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
      result_.truncated += fin.truncated;
      if (!fin.spill_file.empty()) result_.spill_files.push_back(fin.spill_file);
    }
    result_.duration = sweep_span + span;
    // Cycle indices are unique across shards (shard k of n owns exactly the
    // indices ≡ k mod n), so sorting by them recovers the shards=1 order.
    const auto by_cycle = [](const auto& a, const auto& b) { return a.cycle < b.cycle; };
    std::sort(tagged_.begin(), tagged_.end(), by_cycle);
    result_.records.reserve(tagged_.size());
    for (CycleRecord& entry : tagged_) result_.records.push_back(std::move(entry.record));
    tagged_ = {};
    return std::move(result_);
  }

 private:
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
  std::vector<ShardDone> done_;  // indexed by shard
  std::uint64_t shards_done_ = 0;
  std::vector<Swept> swept_;  // capped scans with shards>1: round 1
  std::vector<CycleRecord> tagged_;
  std::uint64_t merged_ = 0;  // host records the shards reported as kept
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
  Merger merger(job, shard_count, launched);

  if (shard_count == 1) {
    merger(run_shard(
        job, plan.shards.front(), network, launched,
        [&merger](auto&& message) { merger(std::forward<decltype(message)>(message)); }));
    return merger.merged_result();
  }

  BoundedChannel<Message> channel(kChannelCapacity);
  const auto send = [&channel](auto&& message) {
    channel.push(std::forward<decltype(message)>(message));
  };
  const auto merge_until = [&](auto&& done) {
    while (!done()) {
      std::optional<Message> message = channel.pop();
      if (!message) break;  // closed early — unreachable in normal operation
      std::visit(merger, std::move(*message));
    }
  };
  ThreadPool pool(std::min<std::size_t>(
      shard_count, std::max<std::size_t>(1, std::thread::hardware_concurrency())));
  // A global cap needs every shard's responsive set before any shard may
  // estimate, so a capped scan runs two rounds: each shard sweeps and hands
  // its world back, the threshold is named here, then each shard estimates
  // on the world it swept. No task ever waits on another.
  const bool capped = job.two_phase && job.max_promoted_hosts > 0;
  for (const ShardSpec& spec : plan.shards) {
    pool.submit([&job, &network, &internet, &launched, &send, capped, spec] {
      auto world = std::make_unique<World>(network, internet);
      if (!capped) {
        send(run_shard(job, spec, world->network, launched, send));
        return;
      }
      Swept swept = sweep_shard(job, spec, world->network);
      swept.world = std::move(world);
      send(std::move(swept));
    });
  }
  if (capped) {
    merge_until([&merger] { return merger.swept_all(); });
    const std::uint64_t threshold = cap_threshold(merger.swept(), job.max_promoted_hosts);
    for (Swept& shard : merger.swept()) {
      pool.submit([&job, &launched, &send, &swept = shard, threshold,
                   spec = plan.shards[shard.done.shard]] {
        const std::unique_ptr<World> world = std::move(swept.world);
        send(estimate_swept(job, spec, world->network, std::move(swept), threshold,
                            launched, send));
      });
    }
  }
  merge_until([&merger] { return merger.finished(); });
  pool.wait();
  channel.close();
  return merger.merged_result();
}

}  // namespace iwscan::exec
