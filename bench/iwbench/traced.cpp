// Traced replay: the scan pipelines of the untraced binary, rebuilt from
// their public parts with a span around every call into a layer. No span
// lives in src/; the layers are wrapped from outside:
//   - a ProbeModule/ProbeSession decorator around core::IwProbeModule times
//     session creation, start, datagram handling and budget kills (core);
//   - the decorator hands each session its own SessionServices, which
//     forwards to the engine and times encoding, packet_pool() to
//     send_packet(PacketBuf) (netbase), and the hand-off to Network::send
//     (netsim);
//   - a decorating sim::Endpoint, re-attached at the scanner address after
//     start(), times ScanEngine::handle_packet or StatelessSweep's (scanner);
//   - the benchmark calls EventLoop::step() itself, one span per event.
// What a step spends outside its child spans is "world": fabric delivery,
// the host stacks (tcpstack, httpd, tls), lazy host instantiation, and the
// timers core and tcpstack schedule on the loop. The benchmark cannot split
// that from outside.
//
// A replay must yield exactly the records of the untraced pipeline: run.py
// compares the two binaries' record digests on every traced run.
//
// This binary's one allocation-counting TU (see util/alloc_stats.hpp).
#define IWSCAN_COUNT_ALLOCATIONS
#include "util/alloc_stats.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/spill_report.hpp"
#include "core/host_prober.hpp"
#include "exec/shard_plan.hpp"
#include "netbase/wire.hpp"
#include "scanner/scan_engine.hpp"
#include "scanner/stateless.hpp"
#include "scanner/targets.hpp"
#include "util/stopwatch.hpp"
#include "workloads.hpp"

namespace iwscan::iwbench {

namespace {

/// One span kind per layer boundary the benchmark wraps.
enum class Layer : std::uint8_t {
  Step,            // sim::EventLoop::step
  Encode,          // SessionServices::packet_pool .. send_packet(PacketBuf)
  Send,            // send_packet(PacketBuf) -> sim::Network::send
  ScannerRx,       // scan::ScanEngine::handle_packet
  SweepRx,         // scan::StatelessSweep::handle_packet
  CoreCreate,      // core::IwProbeModule::create_session
  CoreStart,       // scan::ProbeSession::start
  CoreRx,          // scan::ProbeSession::on_datagram
  CoreBudget,      // scan::ProbeSession::on_budget_exhausted
  StoreAppend,     // store::SpillWriter::append
  StoreClose,      // store::SpillWriter::close
  StoreOpenMerge,  // store::open_merge
  StoreMergeNext,  // store::MergeReader::next
  ExecRun,         // analysis::run_iw_scan with shards > 1
  Summarize,       // analysis::summarize_spill_files
};
constexpr std::size_t kLayers = 15;
constexpr std::array<std::string_view, kLayers> kSpanNames = {
    "netsim.step",      "netbase.encode", "netsim.send",      "scanner.rx",
    "scanner.sweep_rx", "core.create",    "core.start",       "core.rx",
    "core.budget",      "store.append",   "store.close",      "store.open_merge",
    "store.merge_next", "exec.run",       "analysis.summarize"};

constexpr std::size_t index(Layer layer) { return static_cast<std::size_t>(layer); }

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t self_ns = 0;      // minus the time of child spans
  std::uint64_t self_allocs = 0;  // minus the allocations of child spans
};

/// Keeps per-layer totals for the whole run, and the spans of the first
/// kTrackedSessions sessions of the first pass for the Chrome trace. A
/// span's request id is its target's address; a step is kept when one of
/// its children is.
class Tracer {
 public:
  static constexpr std::size_t kTrackedSessions = 4096;

  Tracer() {
    stack_.reserve(64);
    tracked_.reserve(kTrackedSessions);
  }

  void open(Layer layer) {
    stack_.push_back(Open{layer, next_id_++, clock_.elapsed_ns(),
                          util::alloc_stats::allocations()});
  }

  /// Closes the innermost span; `ip` is its request id (0: none).
  void close(net::IPv4Address ip = {}) {
    const std::uint64_t end = clock_.elapsed_ns();
    const std::uint64_t allocs = util::alloc_stats::allocations();
    const Open span = stack_.back();
    stack_.pop_back();
    const std::uint64_t ns = end - span.start_ns;
    const std::uint64_t spent = allocs - span.start_allocs;
    LayerTotals& totals = totals_[index(span.layer)];
    ++totals.calls;
    totals.ns += ns;
    totals.self_ns += ns - span.child_ns;
    totals.self_allocs += spent - span.child_allocs;

    const std::uint32_t id = ip.value() != 0 ? ip.value() : span.child_ip;
    const bool keep = recording_ &&
                      (span.kept_child || (ip.value() != 0 ? tracked(ip.value())
                                                           : span.layer != Layer::Step));
    if (!stack_.empty()) {
      Open& parent = stack_.back();
      parent.child_ns += ns;
      parent.child_allocs += spent;
      if (keep && !parent.kept_child) {
        parent.kept_child = true;
        parent.child_ip = id;
      }
    }
    if (keep) {
      spans_.push_back(Span{span.layer, span.id, stack_.empty() ? 0 : stack_.back().id,
                            span.start_ns, end, id});
    }
  }

  [[nodiscard]] bool top_is(Layer layer) const {
    return !stack_.empty() && stack_.back().layer == layer;
  }

  /// Spans are kept during the first pass only (later passes repeat it).
  void set_recording(bool recording) { recording_ = recording; }

  void track_session(net::IPv4Address target) {
    if (!recording_ || tracked_.size() >= kTrackedSessions) return;
    const auto at = std::lower_bound(tracked_.begin(), tracked_.end(), target.value());
    if (at == tracked_.end() || *at != target.value()) tracked_.insert(at, target.value());
  }

  [[nodiscard]] const LayerTotals& totals(Layer layer) const {
    return totals_[index(layer)];
  }

  /// Chrome trace-event JSON (chrome://tracing, Perfetto). False on I/O error.
  [[nodiscard]] bool write_chrome(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const std::string_view name = kSpanNames[index(span.layer)];
      const std::string_view category = name.substr(0, name.find('.'));
      std::fprintf(out,
                   "%s\n{\"name\": \"%.*s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": \"%s\", \"span\": %llu, \"parent\": %llu}}",
                   i == 0 ? "" : ",", static_cast<int>(name.size()), name.data(),
                   static_cast<int>(category.size()), category.data(),
                   static_cast<double>(span.start_ns) * 1e-3,
                   static_cast<double>(span.end_ns - span.start_ns) * 1e-3,
                   net::IPv4Address(span.ip).to_string().c_str(),
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent));
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  struct Open {
    Layer layer = Layer::Step;
    std::uint64_t id = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t start_allocs = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t child_allocs = 0;
    bool kept_child = false;
    std::uint32_t child_ip = 0;  // request id of the first kept child
  };
  struct Span {
    Layer layer = Layer::Step;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0: a root span
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t ip = 0;
  };

  [[nodiscard]] bool tracked(std::uint32_t ip) const {
    return std::binary_search(tracked_.begin(), tracked_.end(), ip);
  }

  util::Stopwatch clock_;
  std::vector<Open> stack_;
  std::array<LayerTotals, kLayers> totals_{};
  std::vector<Span> spans_;
  std::vector<std::uint32_t> tracked_;  // sorted
  std::uint64_t next_id_ = 1;
  bool recording_ = true;
};

/// A span around one call, closed with its request id on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, Layer layer, net::IPv4Address ip) : tracer_(tracer), ip_(ip) {
    tracer_.open(layer);
  }
  ~Scope() { tracer_.close(ip_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  net::IPv4Address ip_;
};

/// Source (offset 12) or destination (offset 16) address of an IPv4 packet.
net::IPv4Address address_at(net::PacketView packet, std::size_t offset) {
  if (packet.size() < offset + 4) return {};
  net::WireReader reader(packet.subspan(offset, 4));
  return net::IPv4Address(reader.u32());
}

/// Forwards everything to the engine's services; times encoding and sends.
class TracedServices final : public scan::SessionServices {
 public:
  explicit TracedServices(Tracer& tracer) : tracer_(tracer) {}

  void bind(scan::SessionServices& inner) { inner_ = &inner; }

  using scan::SessionServices::send_packet;
  void send_packet(net::Bytes bytes) override {
    const net::IPv4Address destination = address_at(bytes, 16);
    Scope send(tracer_, Layer::Send, destination);
    inner_->send_packet(std::move(bytes));
  }
  void send_packet(net::PacketBuf packet) override {
    const net::IPv4Address destination = address_at(packet.view(), 16);
    if (tracer_.top_is(Layer::Encode)) tracer_.close(destination);
    Scope send(tracer_, Layer::Send, destination);
    inner_->send_packet(std::move(packet));
  }
  /// Every encode starts here (SessionServices::encode_and_send).
  [[nodiscard]] net::BufferPool* packet_pool() override {
    tracer_.open(Layer::Encode);
    return inner_->packet_pool();
  }
  [[nodiscard]] sim::EventLoop& loop() override { return inner_->loop(); }
  [[nodiscard]] net::IPv4Address scanner_address() const override {
    return inner_->scanner_address();
  }
  [[nodiscard]] std::uint16_t allocate_port(net::IPv4Address target) override {
    return inner_->allocate_port(target);
  }
  [[nodiscard]] std::uint64_t session_seed(net::IPv4Address target) override {
    return inner_->session_seed(target);
  }

 private:
  Tracer& tracer_;
  scan::SessionServices* inner_ = nullptr;
};

class TracedSession final : public scan::ProbeSession {
 public:
  TracedSession(std::unique_ptr<scan::ProbeSession> inner, Tracer& tracer,
                net::IPv4Address target)
      : inner_(std::move(inner)), tracer_(tracer), target_(target) {}

  void start() override {
    Scope span(tracer_, Layer::CoreStart, target_);
    inner_->start();
  }
  void on_datagram(const net::Datagram& datagram) override {
    Scope span(tracer_, Layer::CoreRx, target_);
    inner_->on_datagram(datagram);
  }
  void on_budget_exhausted(scan::BudgetKind kind) override {
    Scope span(tracer_, Layer::CoreBudget, target_);
    inner_->on_budget_exhausted(kind);
  }

 private:
  std::unique_ptr<scan::ProbeSession> inner_;
  Tracer& tracer_;
  net::IPv4Address target_;
};

class TracedModule final : public scan::ProbeModule {
 public:
  TracedModule(core::IwScanConfig config, core::HostProber::RecordFn on_record,
               Tracer& tracer)
      : inner_(std::move(config), std::move(on_record)), services_(tracer), tracer_(tracer) {}

  std::unique_ptr<scan::ProbeSession> create_session(scan::SessionServices& services,
                                                     net::IPv4Address target,
                                                     std::function<void()> finish) override {
    services_.bind(services);
    tracer_.track_session(target);
    std::unique_ptr<scan::ProbeSession> session;
    {
      Scope span(tracer_, Layer::CoreCreate, target);
      session = inner_.create_session(services_, target, std::move(finish));
    }
    return std::make_unique<TracedSession>(std::move(session), tracer_, target);
  }

 private:
  core::IwProbeModule inner_;
  TracedServices services_;
  Tracer& tracer_;
};

class TracedEndpoint final : public sim::Endpoint {
 public:
  TracedEndpoint(sim::Endpoint& inner, Tracer& tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  void handle_packet(net::PacketView bytes) override {
    Scope span(tracer_, layer_, address_at(bytes, 12));
    inner_.handle_packet(bytes);
  }

 private:
  sim::Endpoint& inner_;
  Tracer& tracer_;
  Layer layer_;
};

/// Per-layer counts, summed over every pass of the run.
struct Counters {
  std::uint64_t targets = 0;
  std::uint64_t sessions = 0;
  std::uint64_t records = 0;
  std::uint64_t events = 0;
  std::uint64_t lost = 0;
  std::uint64_t unroutable = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t fabric_bytes = 0;
  std::uint64_t fabric_packets = 0;
  std::uint64_t scanner_packets = 0;  // tx + rx, engine and sweep
  std::uint64_t rx_packets = 0;
  std::uint64_t stray = 0;
  std::uint64_t killed = 0;
  std::uint64_t cookie_rejected = 0;
  std::uint64_t duplicate_events = 0;
  std::uint64_t connections = 0;
  std::uint64_t false_success = 0;
  std::uint64_t errors = 0;
  std::uint64_t hosts_instantiated = 0;
  std::uint64_t pending_peak = 0;
  std::uint64_t live_sessions_peak = 0;
  std::uint64_t live_hosts_peak = 0;
  std::uint64_t allocations = 0;  // over the timed part of each pass
  std::uint64_t appended = 0;
  std::uint64_t merged = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t segments = 0;
  std::uint64_t progress_snapshots = 0;
  double progress_gap_max_ms = 0;
  double exec_cpu_s = 0;
  std::uint64_t exec_shards = 0;
  std::uint64_t truth_ns = 0;
  std::uint64_t truth_addresses = 0;
};

struct Tagged {
  std::uint64_t cycle = 0;
  core::HostScanRecord record;
};

/// The probe config run_iw_scan derives from ScanOptions.
core::IwScanConfig probe_config(const analysis::ScanOptions& scan) {
  core::IwScanConfig probe = scan.probe;
  probe.protocol = scan.protocol;
  probe.port = scan.protocol == core::ProbeProtocol::Http ? 80 : 443;
  return probe;
}

/// The engine config the exec layer builds for one worker.
scan::EngineConfig engine_config(const analysis::ScanOptions& scan, double rate_pps,
                                 std::size_t max_outstanding) {
  scan::EngineConfig config;
  config.scanner_address = net::IPv4Address{192, 0, 2, 1};
  config.rate_pps = rate_pps;
  config.max_outstanding = max_outstanding;
  config.seed = scan.scan_seed;
  config.budget = scan.budget;
  return config;
}

scan::TargetGenerator targets_for(const World& world, const analysis::ScanOptions& scan,
                                  std::uint64_t shard = 0, std::uint64_t total = 1) {
  return scan::TargetGenerator(world.internet->registry().scan_space(), scan.blocklist,
                               scan.scan_seed, scan.sample_fraction, shard, total);
}

template <class Done>
void step_until(World& world, const scan::ScanEngine* engine, Tracer& tracer, Counters& c,
                Done&& done) {
  while (!done()) {
    c.pending_peak = std::max<std::uint64_t>(c.pending_peak, world.loop.pending_events());
    c.live_hosts_peak =
        std::max<std::uint64_t>(c.live_hosts_peak, world.internet->live_hosts());
    if (engine != nullptr) {
      c.live_sessions_peak =
          std::max<std::uint64_t>(c.live_sessions_peak, engine->live_sessions());
    }
    tracer.open(Layer::Step);
    const bool stepped = world.loop.step();
    tracer.close();
    if (!stepped) break;
  }
}

/// One ScanEngine run with every layer boundary traced: what the exec
/// layer's run_single, run_list_phase and run_shard do untraced. Records
/// land in `tagged` (and in `spill`, when given) with their cycle index.
scan::EngineStats replay_engine(World& world, scan::TargetSource& source,
                                const scan::EngineConfig& config,
                                const core::IwScanConfig& probe, HostSpillWriter* spill,
                                Tracer& tracer, Counters& c, std::vector<Tagged>& tagged) {
  std::unordered_map<net::IPv4Address, std::uint64_t> cycle_of;
  TracedModule module(
      probe,
      [&](const core::HostScanRecord& record) {
        const auto it = cycle_of.find(record.ip);
        const std::uint64_t cycle = it == cycle_of.end() ? 0 : it->second;
        if (it != cycle_of.end()) cycle_of.erase(it);
        tagged.push_back({cycle, record});
        if (spill != nullptr) {
          Scope span(tracer, Layer::StoreAppend, record.ip);
          spill->append(cycle, record);
          ++c.appended;
        }
      },
      tracer);
  scan::ScanEngine engine(*world.network, config, source, module);
  engine.set_launch_observer(
      [&](net::IPv4Address ip, std::uint64_t cycle) { cycle_of[ip] = cycle; });
  engine.start();
  TracedEndpoint rx(engine, tracer, Layer::ScannerRx);
  world.network->attach(config.scanner_address, &rx);
  step_until(world, &engine, tracer, c, [&] { return engine.done(); });
  world.network->detach(config.scanner_address);

  const scan::EngineStats& stats = engine.stats();
  c.sessions += stats.targets_started;
  c.scanner_packets += stats.packets_sent + stats.packets_received;
  c.rx_packets += stats.packets_received;
  c.stray += stats.stray_packets;
  c.killed += stats.sessions_killed_wall + stats.sessions_killed_bytes +
              stats.sessions_killed_packets;
  return stats;
}

/// World-wide counts of one finished pass.
void add_world(const World& world, Counters& c) {
  c.events += world.loop.events_processed();
  const sim::NetworkStats& fabric = world.network->stats();
  c.lost += fabric.packets_lost;
  c.unroutable += fabric.packets_unroutable;
  c.duplicated += fabric.packets_duplicated;
  c.fabric_bytes += fabric.bytes_sent;
  c.fabric_packets += fabric.packets_sent;
  c.hosts_instantiated += world.internet->hosts_instantiated();
}

/// Sorts a replay's records into cycle order and folds them into the
/// digest and the accuracy counts.
RecordDigest fold_records(std::vector<Tagged>& tagged, const World& world, bool tls,
                          Counters& c) {
  std::sort(tagged.begin(), tagged.end(),
            [](const Tagged& a, const Tagged& b) { return a.cycle < b.cycle; });
  RecordDigest digest;
  Accuracy accuracy;
  for (const Tagged& entry : tagged) {
    digest.add(entry.record);
    accuracy.add(entry.record, *world.internet, tls);
    c.connections += entry.record.connections_used;
  }
  c.records += tagged.size();
  c.false_success += accuracy.false_success;
  c.errors += accuracy.errors;
  return digest;
}

PassResult stateful_pass(const Workload& workload, const RunOptions& options, Tracer& tracer,
                         Counters& c) {
  PassResult pass;
  const auto world = make_world(workload, options.seed);
  const analysis::ScanOptions scan = scan_options(workload, options);
  scan::GeneratorTargetSource source(targets_for(*world, scan));
  std::vector<Tagged> tagged;
  tagged.reserve(source.size_hint());

  const std::uint64_t allocs = util::alloc_stats::allocations();
  util::Stopwatch watch;
  const scan::EngineStats stats =
      replay_engine(*world, source, engine_config(scan, scan.rate_pps, scan.max_outstanding),
                    probe_config(scan), nullptr, tracer, c, tagged);
  pass.scan_s = watch.elapsed_seconds();
  c.allocations += util::alloc_stats::allocations() - allocs;

  add_world(*world, c);
  const RecordDigest digest =
      fold_records(tagged, *world, scan.protocol == core::ProbeProtocol::Tls, c);
  pass.targets = stats.targets_started;
  pass.records = digest.count();
  pass.digest = digest.value();
  c.targets += pass.targets;
  require(pass, pass.records == pass.targets,
          std::to_string(pass.records) + " records for " + std::to_string(pass.targets) +
              " targets");
  return pass;
}

PassResult sweep_capped_pass(const Workload& workload, const RunOptions& options,
                             Tracer& tracer, Counters& c) {
  PassResult pass;
  const auto world = make_world(workload, options.seed);
  const analysis::ScanOptions scan = scan_options(workload, options);
  const core::IwScanConfig probe = probe_config(scan);

  const std::uint64_t allocs = util::alloc_stats::allocations();
  util::Stopwatch watch;
  std::vector<scan::ListTargetSource::Entry> responsive;
  {
    scan::SweepConfig config;
    config.target_port = probe.port;
    config.rate_pps = scan.sweep_rate_pps;
    config.seed = scan.scan_seed;
    scan::StatelessSweep sweep(*world->network, config, targets_for(*world, scan),
                               [&](const scan::SweepEvent& event) {
                                 if (event.kind == scan::SweepEventKind::Responsive) {
                                   responsive.emplace_back(event.source, event.cycle);
                                 }
                               });
    sweep.start();
    TracedEndpoint rx(sweep, tracer, Layer::SweepRx);
    world->network->attach(config.scanner_address, &rx);
    step_until(*world, nullptr, tracer, c, [&] { return sweep.done(); });
    world->network->detach(config.scanner_address);

    const scan::SweepStats& stats = sweep.stats();
    pass.targets = stats.targets_probed;
    c.scanner_packets += stats.packets_sent + stats.packets_received;
    c.rx_packets += stats.packets_received;
    c.cookie_rejected += stats.cookie_rejected;
    c.duplicate_events += stats.duplicate_events;
  }
  // The capped promotion: the responsive hosts with the lowest cycles.
  std::sort(responsive.begin(), responsive.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  if (responsive.size() > scan.max_promoted_hosts) {
    responsive.resize(scan.max_promoted_hosts);
  }
  const std::uint64_t promoted = responsive.size();
  scan::ListTargetSource source(std::move(responsive));
  std::vector<Tagged> tagged;
  tagged.reserve(promoted);
  replay_engine(*world, source, engine_config(scan, scan.rate_pps, scan.max_outstanding),
                probe, nullptr, tracer, c, tagged);
  pass.scan_s = watch.elapsed_seconds();
  c.allocations += util::alloc_stats::allocations() - allocs;

  add_world(*world, c);
  const RecordDigest digest = fold_records(tagged, *world, false, c);
  pass.records = digest.count();
  pass.digest = digest.value();
  c.targets += pass.targets;
  require(pass, pass.records == promoted,
          std::to_string(pass.records) + " records for " + std::to_string(promoted) +
              " promoted hosts");
  return pass;
}

/// Total size and segment count of a set of spill files.
void add_spill_files(const std::vector<std::string>& files, Counters& c) {
  for (const std::string& file : files) {
    std::error_code ec;
    c.spill_bytes += std::filesystem::file_size(file, ec);
    store::SegmentReader<core::HostScanRecord> reader;
    std::string error;
    if (reader.open(file, &error)) c.segments += reader.segments().size();
  }
}

PassResult sharded_spill_pass(const Workload& workload, const RunOptions& options,
                              Tracer& tracer, Counters& c) {
  PassResult pass;
  const auto world = make_world(workload, options.seed);
  analysis::ScanOptions scan = scan_options(workload, options);
  const bool tls = scan.protocol == core::ProbeProtocol::Tls;
  std::filesystem::remove_all(scan.spill_dir);

  // Exec level: the real sharded run, timed as a whole, with the gaps
  // between its progress snapshots.
  util::Stopwatch gap;
  scan.progress = [&](const exec::ProgressSnapshot&) {
    ++c.progress_snapshots;
    c.progress_gap_max_ms = std::max(c.progress_gap_max_ms, gap.elapsed_seconds() * 1e3);
    gap.restart();
  };
  const double cpu_before = cpu_seconds();
  gap.restart();
  tracer.open(Layer::ExecRun);
  const analysis::ScanOutput out =
      analysis::run_iw_scan(*world->network, *world->internet, scan);
  tracer.close();
  c.exec_cpu_s += cpu_seconds() - cpu_before;
  c.exec_shards += scan.shards;
  analysis::SpillSummary summary;
  std::string error;
  tracer.open(Layer::Summarize);
  const bool summarized = analysis::summarize_spill_files(out.spill_files, summary, error);
  tracer.close();
  require(pass, summarized, "summarize_spill_files: " + error);
  add_spill_files(out.spill_files, c);
  {
    RecordDigest digest;
    Accuracy accuracy;
    const std::string failure = read_spill(out.spill_files, *world->internet, tls, digest,
                                           accuracy);
    require(pass, failure.empty(), failure);
    pass.records = digest.count();
    pass.digest = digest.value();
  }

  // Per-layer split: worker 0 replayed on a private world built the way
  // the exec layer builds one.
  World shard;
  shard.network = std::make_unique<sim::Network>(shard.loop, world->network->seed());
  shard.network->set_default_path(world->network->default_path());
  shard.internet =
      std::make_unique<model::InternetModel>(*shard.network, world->internet->config());
  shard.internet->install();
  const exec::ShardPlan plan =
      exec::ShardPlan::make(scan.shards, scan.rate_pps, scan.max_outstanding);
  const exec::ShardSpec& spec = plan.shards.front();
  scan::GeneratorTargetSource source(
      targets_for(shard, scan, spec.shard, spec.total_shards));
  const std::string replay_dir = work_path(options, workload.name + "-replay");
  store::SpillConfig spill_config;
  spill_config.directory = replay_dir;
  spill_config.segment_bytes = scan.spill_segment_bytes;
  spill_config.seed = scan.scan_seed;
  spill_config.shard = static_cast<std::uint32_t>(spec.shard);
  spill_config.total_shards = static_cast<std::uint32_t>(spec.total_shards);
  HostSpillWriter spill(spill_config);
  std::vector<Tagged> tagged;

  const std::uint64_t allocs = util::alloc_stats::allocations();
  util::Stopwatch watch;
  const scan::EngineStats stats =
      replay_engine(shard, source, engine_config(scan, spec.rate_pps, spec.max_outstanding),
                    probe_config(scan), &spill, tracer, c, tagged);
  tracer.open(Layer::StoreClose);
  const bool closed = spill.close();
  tracer.close();
  pass.scan_s = watch.elapsed_seconds();
  c.allocations += util::alloc_stats::allocations() - allocs;
  require(pass, closed, "replay spill: " + spill.error());

  add_world(shard, c);
  fold_records(tagged, shard, tls, c);
  c.targets += stats.targets_started;
  pass.targets = out.engine.targets_started;
  require(pass, pass.records == pass.targets,
          std::to_string(pass.records) + " records for " + std::to_string(pass.targets) +
              " targets");

  // Identity: the replay's records are worker 0's spill file, read back.
  tracer.open(Layer::StoreOpenMerge);
  auto merge = store::open_merge<core::HostScanRecord>({out.spill_files.front()}, &error);
  tracer.close();
  require(pass, merge.has_value(), "open_merge: " + error);
  if (merge.has_value()) {
    constexpr std::size_t kBatch = 4096;
    std::vector<Tagged> batch(kBatch);
    std::size_t matched = 0;
    std::size_t read = 0;
    for (;;) {
      std::size_t n = 0;
      tracer.open(Layer::StoreMergeNext);
      while (n < kBatch && merge->next(batch[n].cycle, batch[n].record)) ++n;
      tracer.close();
      for (std::size_t i = 0; i < n; ++i, ++read) {
        if (read < tagged.size() && tagged[read].cycle == batch[i].cycle &&
            tagged[read].record == batch[i].record) {
          ++matched;
        }
      }
      c.merged += n;
      if (n < kBatch) break;
    }
    require(pass, merge->ok(), "merge: " + merge->error());
    require(pass, read == tagged.size() && matched == read,
            "worker-0 replay differs from its spill file (" + std::to_string(matched) +
                " of " + std::to_string(read) + " records match)");
  }
  std::filesystem::remove_all(scan.spill_dir);
  std::filesystem::remove_all(replay_dir);
  return pass;
}

PassResult spill_merge_pass(const Workload& workload, const RunOptions& options,
                            Tracer& tracer, Counters& c) {
  PassResult pass;
  const std::string dir = work_path(options, workload.name);
  std::filesystem::remove_all(dir);
  auto writers = open_spill_writers(options, dir);

  // Batches keep the spans coarse: one span per 4096 appends or reads, so
  // record synthesis and checking stay outside them.
  constexpr std::size_t kBatch = 4096;
  std::vector<Tagged> batch(kBatch);
  const std::uint64_t total = std::uint64_t{1} << workload.scale_log2;
  pass.targets = total;
  util::Stopwatch watch;
  for (std::uint64_t start = 0; start < total; start += kBatch) {
    const std::size_t n = static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, total - start));
    for (std::size_t i = 0; i < n; ++i) {
      batch[i].cycle = scrambled_cycle(start + i, workload.scale_log2);
      batch[i].record = synthetic_record(options.seed, batch[i].cycle);
    }
    Scope span(tracer, Layer::StoreAppend, {});
    for (std::size_t i = 0; i < n; ++i) {
      writers[batch[i].cycle % writers.size()]->append(batch[i].cycle, batch[i].record);
    }
  }
  c.appended += total;
  std::vector<std::string> files;
  bool closed = true;
  tracer.open(Layer::StoreClose);
  for (auto& writer : writers) {
    closed = writer->close() && closed;
    files.push_back(writer->path());
    c.segments += writer->segments_flushed();
  }
  tracer.close();
  require(pass, closed, "spill write failed");
  for (const std::string& file : files) {
    std::error_code ec;
    c.spill_bytes += std::filesystem::file_size(file, ec);
  }

  std::string error;
  tracer.open(Layer::StoreOpenMerge);
  auto merge = store::open_merge<core::HostScanRecord>(files, &error);
  tracer.close();
  require(pass, merge.has_value(), "open_merge: " + error);
  RecordDigest digest;
  std::uint64_t exact = 0;
  bool increasing = true;
  if (merge.has_value()) {
    std::uint64_t last = 0;
    for (;;) {
      std::size_t n = 0;
      tracer.open(Layer::StoreMergeNext);
      while (n < kBatch && merge->next(batch[n].cycle, batch[n].record)) ++n;
      tracer.close();
      for (std::size_t i = 0; i < n; ++i) {
        increasing = increasing && (digest.count() == 0 || batch[i].cycle > last);
        last = batch[i].cycle;
        exact += batch[i].record == synthetic_record(options.seed, batch[i].cycle) ? 1 : 0;
        digest.add(batch[i].record);
      }
      if (n < kBatch) break;
    }
    require(pass, merge->ok(), "merge: " + merge->error());
  }
  pass.scan_s = watch.elapsed_seconds();
  c.merged += digest.count();
  c.records += digest.count();
  c.targets += total;
  require(pass, increasing, "merged cycles are not strictly increasing");
  require(pass, digest.count() == total && exact == total,
          std::to_string(exact) + " of " + std::to_string(total) +
              " records merged back unchanged");
  pass.records = digest.count();
  pass.digest = digest.value();
  writers.clear();
  std::filesystem::remove_all(dir);
  return pass;
}

/// A timed pure pass of truth() over the scan space.
void time_truth(const Workload& workload, const RunOptions& options, Counters& c) {
  const auto world = make_world(workload, options.seed);
  util::Stopwatch watch;
  for (const net::Cidr& block : world->internet->registry().scan_space()) {
    for (std::uint64_t i = 0; i < block.size(); ++i) {
      (void)world->internet->truth(block.at(i));
    }
    c.truth_addresses += block.size();
  }
  c.truth_ns += watch.elapsed_ns();
}

std::vector<Metric> per_layer_metrics(const Tracer& tracer, const Counters& c,
                                      std::uint64_t passes, double pass_s) {
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto each = [&](std::uint64_t count) {
    return per(static_cast<double>(count), static_cast<double>(passes));
  };
  const auto ns_per = [&](Layer layer) {
    const LayerTotals& t = tracer.totals(layer);
    return per(static_cast<double>(t.ns), static_cast<double>(t.calls));
  };
  const auto seconds_each = [&](Layer layer) {
    return each(tracer.totals(layer).ns) * 1e-9;
  };
  const LayerTotals& step = tracer.totals(Layer::Step);
  const LayerTotals& rx = tracer.totals(Layer::ScannerRx);
  const LayerTotals& core_rx = tracer.totals(Layer::CoreRx);
  std::uint64_t core_allocs = 0;
  for (const Layer layer :
       {Layer::CoreCreate, Layer::CoreStart, Layer::CoreRx, Layer::CoreBudget}) {
    core_allocs += tracer.totals(layer).self_allocs;
  }
  const double exec_s = static_cast<double>(tracer.totals(Layer::ExecRun).ns) * 1e-9;
  const auto d = [](std::uint64_t value) { return static_cast<double>(value); };
  return {
      {"netsim.events", each(c.events), "count"},
      {"netsim.events_per_target", per(d(c.events), d(c.targets)), "events"},
      {"netsim.step_ns_per_event", ns_per(Layer::Step), "ns"},
      {"netsim.send_ns_per_packet", ns_per(Layer::Send), "ns"},
      {"netsim.pending_events_peak", d(c.pending_peak), "count"},
      {"netsim.packets_lost", each(c.lost), "count"},
      {"netsim.packets_unroutable", each(c.unroutable), "count"},
      {"netsim.packets_duplicated", each(c.duplicated), "count"},
      {"netsim.bytes_per_packet", per(d(c.fabric_bytes), d(c.fabric_packets)), "bytes"},
      {"netbase.encode_ns_per_packet", ns_per(Layer::Encode), "ns"},
      {"scanner.rx_packets", each(c.rx_packets), "count"},
      {"scanner.rx_ns_per_packet", ns_per(Layer::ScannerRx), "ns"},
      {"scanner.rx_self_ns_per_packet", per(d(rx.self_ns), d(rx.calls)), "ns"},
      {"scanner.rx_allocs_per_packet", per(d(rx.self_allocs), d(rx.calls)), "allocs"},
      {"scanner.sweep_rx_ns_per_packet", ns_per(Layer::SweepRx), "ns"},
      {"scanner.live_sessions_peak", d(c.live_sessions_peak), "count"},
      {"scanner.stray_packets", each(c.stray), "count"},
      {"scanner.sessions_killed", each(c.killed), "count"},
      {"scanner.sweep_cookie_rejected", each(c.cookie_rejected), "count"},
      {"scanner.sweep_duplicate_events", each(c.duplicate_events), "count"},
      {"core.sessions", each(c.sessions), "count"},
      {"core.create_ns_per_session", ns_per(Layer::CoreCreate), "ns"},
      {"core.start_ns_per_session", ns_per(Layer::CoreStart), "ns"},
      {"core.rx_ns_per_datagram", ns_per(Layer::CoreRx), "ns"},
      {"core.rx_self_ns_per_datagram", per(d(core_rx.self_ns), d(core_rx.calls)), "ns"},
      {"core.allocs_per_session", per(d(core_allocs), d(c.sessions)), "allocs"},
      {"core.connections_per_host", per(d(c.connections), d(c.records)), "count"},
      {"core.false_success", each(c.false_success), "count"},
      {"core.failed_share", per(d(c.errors + c.killed), d(c.sessions)), "ratio"},
      {"world.ns_per_event", per(d(step.self_ns), d(step.calls)), "ns"},
      {"world.share", per(d(step.self_ns), d(step.ns)), "ratio"},
      {"world.allocs_per_event", per(d(step.self_allocs), d(step.calls)), "allocs"},
      {"inetmodel.hosts_instantiated", each(c.hosts_instantiated), "count"},
      {"inetmodel.live_hosts_peak", d(c.live_hosts_peak), "count"},
      {"inetmodel.truth_ns_per_address", per(d(c.truth_ns), d(c.truth_addresses)), "ns"},
      {"exec.run_s", seconds_each(Layer::ExecRun), "s"},
      {"exec.progress_snapshots", each(c.progress_snapshots), "count"},
      {"exec.progress_gap_max_ms", c.progress_gap_max_ms, "ms"},
      {"exec.cpu_utilization", per(c.exec_cpu_s, d(c.exec_shards) / d(passes) * exec_s),
       "ratio"},
      {"store.append_ns_per_record",
       per(d(tracer.totals(Layer::StoreAppend).ns), d(c.appended)), "ns"},
      {"store.close_s", seconds_each(Layer::StoreClose), "s"},
      {"store.open_merge_s", seconds_each(Layer::StoreOpenMerge), "s"},
      {"store.merge_next_ns_per_record",
       per(d(tracer.totals(Layer::StoreMergeNext).ns), d(c.merged)), "ns"},
      {"store.spill_bytes", each(c.spill_bytes), "bytes"},
      {"store.segments", each(c.segments), "count"},
      {"analysis.summarize_s", seconds_each(Layer::Summarize), "s"},
      {"alloc.per_packet", per(d(c.allocations), d(c.scanner_packets)), "allocs"},
      // run.py turns this into trace.overhead_pct against the untraced scan_s.
      {"trace.pass_s", pass_s, "s"},
  };
}

}  // namespace

RunReport run_traced(const Workload& workload, const RunOptions& options) {
  Tracer tracer;
  Counters counters;
  RunReport report;
  std::vector<double> pass_s;
  util::Stopwatch budget;
  while (another_pass_fits(budget.elapsed_seconds(), report.passes, options.seconds)) {
    tracer.set_recording(report.passes == 0);
    PassResult pass;
    switch (workload.pipeline) {
      case Pipeline::Stateful: pass = stateful_pass(workload, options, tracer, counters); break;
      case Pipeline::SweepCapped:
        pass = sweep_capped_pass(workload, options, tracer, counters);
        break;
      case Pipeline::ShardedSpill:
        pass = sharded_spill_pass(workload, options, tracer, counters);
        break;
      case Pipeline::SpillMerge:
        pass = spill_merge_pass(workload, options, tracer, counters);
        break;
    }
    pass_s.push_back(pass.scan_s);
    add_pass(report, std::move(pass));
  }
  if (workload.pipeline != Pipeline::SpillMerge) time_truth(workload, options, counters);
  if (!options.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
    const std::string path =
        (std::filesystem::path(options.trace_dir) / (workload.name + ".trace.json")).string();
    if (!tracer.write_chrome(path)) report.failures.push_back("cannot write " + path);
  }
  report.metrics = per_layer_metrics(tracer, counters, report.passes, median(pass_s));
  return report;
}

}  // namespace iwscan::iwbench
