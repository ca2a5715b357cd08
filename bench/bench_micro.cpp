// Microbenchmarks (google-benchmark): the per-packet hot paths that bound
// the scanner's achievable rate (§3.4) — codec round trips, checksums,
// address-permutation iteration, event-loop throughput, the pooled fabric
// hop, lazy host materialization, and a single estimator connection
// end-to-end — plus the whole-scan wall-clock rates of the stateful and
// stateless tiers and the parallel executor's 1-vs-4-shard speedup.
//
// `--json <path>` writes the results as JSON (items/bytes per second plus
// the allocs_per_packet counters) for the perf-tracking harness; see
// DESIGN.md §Performance for how CI compares runs against the committed
// baseline in BENCH_datapath.json.
#include <benchmark/benchmark.h>

#include <array>

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

// This is the binary's one allocation-counting TU: every global operator
// new in the process increments util::alloc_stats::allocations(), which
// the datapath benchmarks report as allocs-per-packet counters.
#define IWSCAN_COUNT_ALLOCATIONS
#include "util/alloc_stats.hpp"

#include "bench_common.hpp"
#include "core/estimator.hpp"
#include "httpd/http_server.hpp"
#include "inetmodel/censys_certs.hpp"
#include "inetmodel/internet.hpp"
#include "netbase/checksum.hpp"
#include "netbase/packet.hpp"
#include "netsim/network.hpp"
#include "scanner/permutation.hpp"
#include "scanner/stateless.hpp"
#include "scanner/syncookie.hpp"
#include "tcpstack/host.hpp"
#include "tls/handshake.hpp"
#include "tls/tls_server.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace iwscan;

// The largest payload the segment benchmarks send, as constant bytes a
// segment's payload can point at.
constexpr auto kSegmentFill = [] {
  std::array<std::uint8_t, 1460> bytes{};
  bytes.fill(0x41);
  return bytes;
}();

net::TcpSegment make_segment(std::size_t payload_size) {
  net::TcpSegment segment;
  segment.ip.src = net::IPv4Address{192, 0, 2, 1};
  segment.ip.dst = net::IPv4Address{10, 1, 2, 3};
  segment.tcp.src_port = 40000;
  segment.tcp.dst_port = 80;
  segment.tcp.seq = 12345;
  segment.tcp.ack = 67890;
  segment.tcp.flags = net::kAck | net::kPsh;
  segment.tcp.window = 65535;
  segment.tcp.mss = 64;
  segment.payload = std::span(kSegmentFill).first(payload_size);
  return segment;
}

void BM_TcpSegmentEncode(benchmark::State& state) {
  const auto segment = make_segment(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode(segment));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (40 + state.range(0)));
}
BENCHMARK(BM_TcpSegmentEncode)->Arg(0)->Arg(64)->Arg(536)->Arg(1460);

void BM_TcpSegmentDecode(benchmark::State& state) {
  const auto bytes = net::encode(make_segment(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode_datagram(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_TcpSegmentDecode)->Arg(0)->Arg(64)->Arg(536)->Arg(1460);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::internet_checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(64)->Arg(1500)->Arg(65536);

void BM_PermutationNext(benchmark::State& state) {
  scan::RandomPermutation permutation(static_cast<std::uint64_t>(state.range(0)), 7);
  std::uint64_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(permutation.permute(index));
    index = (index + 1) % permutation.domain_size();
  }
}
BENCHMARK(BM_PermutationNext)->Arg(1 << 16)->Arg(1 << 24)->Arg(1u << 31);

void BM_ClientHelloEncode(benchmark::State& state) {
  // The probe's ClientHello record, as TlsStrategy::request() writes it.
  static constexpr std::uint8_t kNullCompression[] = {0};
  const std::array<std::uint8_t, 32> random{};
  tls::ClientHelloFields fields;
  fields.random = random;
  fields.cipher_suites = tls::probe_cipher_list();
  fields.compression_methods = kNullCompression;
  fields.ocsp_stapling = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tls::encode_client_hello_record(fields, tls::kTls10));
  }
}
BENCHMARK(BM_ClientHelloEncode);

void BM_TlsFirstFlight(benchmark::State& state) {
  // The TLS daemon's reply to a ClientHello — ServerHello, a chain of
  // range(0) certificate bytes, ServerHelloDone — written in one pass into
  // one buffer. bytes_per_second counts wire bytes; allocs_per_flight is a
  // ceiling in BENCH_datapath.json.
  tls::TlsConfig config;
  config.chain_bytes = static_cast<std::size_t>(state.range(0));
  config.server_name = "bench";
  config.seed = 1;
  const net::IPv4Address client{192, 0, 2, 1};
  const tls::CipherSuite chosen = tls::probe_cipher_list().front();
  std::uint64_t bytes = 0;
  std::uint64_t flights = 0;
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t before = util::alloc_stats::allocations();
    const net::Bytes flight = tls::encode_first_flight(config, client, chosen, false);
    allocs += util::alloc_stats::allocations() - before;
    bytes += flight.size();
    ++flights;
    benchmark::DoNotOptimize(flight.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["allocs_per_flight"] =
      flights == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(flights);
}
BENCHMARK(BM_TlsFirstFlight)->Arg(640)->Arg(2186)->Arg(16384)->Arg(65000);

void BM_CertLengthSample(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::CertChainDistribution::sample(rng));
  }
}
BENCHMARK(BM_CertLengthSample);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int counter = 0;
    for (int i = 0; i < state.range(0); ++i) {
      loop.schedule(sim::usec(i), [&counter] { ++counter; });
    }
    loop.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventLoopScheduleRun)->Arg(1000)->Arg(100000);

void BM_NetworkPacketDelivery(benchmark::State& state) {
  // One steady-state fabric hop per iteration: encode into a pooled
  // buffer, inject, and deliver. allocs_per_packet is the tentpole's
  // zero-allocation claim, measured: once slab chunks and pool buffers
  // are warm, a packet should cross the fabric without touching the
  // allocator.
  struct Sink final : sim::Endpoint {
    std::uint64_t received = 0;
    void handle_packet(net::PacketView bytes) override {
      benchmark::DoNotOptimize(bytes.data());
      ++received;
    }
  };
  sim::EventLoop loop;
  sim::Network network(loop, 1);
  Sink sink;
  network.attach(net::IPv4Address{10, 1, 2, 3}, &sink);
  const auto segment = make_segment(static_cast<std::size_t>(state.range(0)));
  net::Bytes scratch;
  net::encode_into(segment, scratch);
  const std::size_t wire_size = scratch.size();

  // Warm the pool and slab so the counted window is steady state.
  for (int i = 0; i < 16; ++i) {
    net::PacketBuf warm = network.pool().acquire(wire_size);
    net::encode_into(segment, warm.bytes());
    network.send(std::move(warm));
  }
  loop.run();

  std::uint64_t packets = 0;
  const std::uint64_t allocs_before = util::alloc_stats::allocations();
  for (auto _ : state) {
    net::PacketBuf buf = network.pool().acquire(wire_size);
    net::encode_into(segment, buf.bytes());
    network.send(std::move(buf));
    loop.run();
    ++packets;
  }
  const std::uint64_t allocs = util::alloc_stats::allocations() - allocs_before;
  state.counters["allocs_per_packet"] =
      packets == 0 ? 0.0
                   : static_cast<double>(allocs) / static_cast<double>(packets);
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.SetBytesProcessed(static_cast<std::int64_t>(packets * wire_size));
  benchmark::DoNotOptimize(sink.received);
}
BENCHMARK(BM_NetworkPacketDelivery)->Arg(0)->Arg(536)->Arg(1460);

void BM_NetworkPacketDeliveryManyHosts(benchmark::State& state) {
  // The same hop, fanned out over N attached destinations that each have
  // their own jittered path, as a scan's materialized hosts do. The single
  // sink above keeps every address and flow lookup in cache; here each
  // packet looks up a different host's entry and flow generator, so the
  // fabric's per-address bookkeeping shows in the rate.
  struct Sink final : sim::Endpoint {
    std::uint64_t received = 0;
    void handle_packet(net::PacketView bytes) override {
      benchmark::DoNotOptimize(bytes.data());
      ++received;
    }
  };
  const auto hosts = static_cast<std::uint32_t>(state.range(0));
  sim::EventLoop loop;
  sim::Network network(loop, 1);
  Sink sink;
  std::vector<net::TcpSegment> segments;
  segments.reserve(hosts);
  for (std::uint32_t i = 0; i < hosts; ++i) {
    net::TcpSegment segment = make_segment(0);
    // Distinct addresses scattered over 10.0.0.0/8, like a sampled scan's
    // targets: an odd multiplier permutes the low 24 bits.
    segment.ip.dst = net::IPv4Address{(10u << 24) | ((i * 0x9e3779u) & 0xffffffu)};
    sim::PathConfig path;
    path.latency = sim::usec(1000 + static_cast<std::int64_t>(i % 64) * 100);
    path.jitter = sim::usec(50);
    network.attach(segment.ip.dst, &sink);
    network.set_path(segment.ip.dst, path);
    segments.push_back(std::move(segment));
  }

  // One pass over every host warms the pool, the slab and every flow.
  for (const net::TcpSegment& segment : segments) {
    net::PacketBuf warm = network.pool().acquire(net::encoded_size(segment));
    net::encode_into(segment, warm.bytes());
    network.send(std::move(warm));
    loop.run();
  }

  std::uint64_t packets = 0;
  std::size_t next = 0;
  const std::uint64_t allocs_before = util::alloc_stats::allocations();
  for (auto _ : state) {
    const net::TcpSegment& segment = segments[next];
    net::PacketBuf buf = network.pool().acquire(net::encoded_size(segment));
    net::encode_into(segment, buf.bytes());
    network.send(std::move(buf));
    loop.run();
    next = next + 1 == segments.size() ? 0 : next + 1;
    ++packets;
  }
  const std::uint64_t allocs = util::alloc_stats::allocations() - allocs_before;
  state.counters["allocs_per_packet"] =
      packets == 0 ? 0.0
                   : static_cast<double>(allocs) / static_cast<double>(packets);
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  benchmark::DoNotOptimize(sink.received);
}
BENCHMARK(BM_NetworkPacketDeliveryManyHosts)->Arg(4096)->Arg(65536);

void BM_MaterializeHost(benchmark::State& state) {
  // The sweep's per-host world cost: the first packet to a present address
  // makes the Internet model build its host (stack, listeners, path) and
  // attach it. The packet is an ICMP message hosts ignore, so the counted
  // allocations are the build alone: allocs_per_host, and hosts/s as the
  // rate. A world runs out of unbuilt hosts, so it is rebuilt, untimed and
  // uncounted, every pass over its addresses.
  struct World {
    sim::EventLoop loop;
    sim::Network network{loop, 1};
    model::InternetModel internet;
    World(const model::ModelConfig& config, std::size_t hosts)
        : internet(network, config) {
      internet.install();
      network.reserve_endpoints(hosts);  // as the scan engine does
    }
  };
  model::ModelConfig config;
  config.scale_log2 = 16;
  auto world = std::make_unique<World>(config, 0);
  std::vector<net::IPv4Address> present;
  for (const net::Cidr& prefix : world->internet.registry().scan_space()) {
    for (std::uint64_t i = 0; i < prefix.size(); ++i) {
      if (world->internet.truth(prefix.at(i)).present) present.push_back(prefix.at(i));
    }
  }
  world = std::make_unique<World>(config, present.size());
  net::IcmpDatagram probe;
  probe.ip.src = net::IPv4Address{192, 0, 2, 1};
  probe.icmp.type = net::IcmpType::DestinationUnreachable;

  std::uint64_t hosts = 0;
  std::uint64_t allocs = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == present.size()) {
      state.PauseTiming();
      world.reset();
      world = std::make_unique<World>(config, present.size());
      next = 0;
      state.ResumeTiming();
    }
    probe.ip.dst = present[next++];
    net::PacketBuf buf = world->network.pool().acquire(net::encoded_size(probe));
    net::encode_into(probe, buf.bytes());
    const std::uint64_t before = util::alloc_stats::allocations();
    world->network.send(std::move(buf));
    allocs += util::alloc_stats::allocations() - before;
    ++hosts;
  }
  state.counters["allocs_per_host"] =
      hosts == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(hosts);
  state.SetItemsProcessed(static_cast<std::int64_t>(hosts));
}
BENCHMARK(BM_MaterializeHost);

void BM_EstimatorConnection(benchmark::State& state) {
  // One complete Fig.-1 estimation against an IW10 host, end to end.
  struct Services final : scan::SessionServices, sim::Endpoint {
    sim::Network& network;
    std::function<void(const net::Datagram&)> handler;
    std::uint16_t port = 40000;
    std::uint64_t seed = 5;
    explicit Services(sim::Network& n) : network(n) {}
    void handle_packet(net::PacketView bytes) override {
      const auto d = net::decode_datagram(bytes);
      if (d && handler) handler(*d);
    }
    void send_packet(net::Bytes bytes) override { network.send(std::move(bytes)); }
    sim::EventLoop& loop() override { return network.loop(); }
    net::IPv4Address scanner_address() const override {
      return net::IPv4Address{192, 0, 2, 1};
    }
    std::uint16_t allocate_port(net::IPv4Address) override { return port++; }
    std::uint64_t session_seed(net::IPv4Address) override { return seed += 12345; }
  };

  // One owner for every connection, as a probe module serves every session
  // of a scan: connections after the first reuse its evidence block.
  bool done = false;
  core::FixedRequestOwner owner(
      net::to_bytes("GET / HTTP/1.1\r\nHost: 10.0.0.1\r\nConnection: close\r\n\r\n"),
      [&](const core::ConnObservation&) { done = true; });
  std::uint64_t connections = 0;
  const std::uint64_t allocs_before = util::alloc_stats::allocations();
  for (auto _ : state) {
    sim::EventLoop loop;
    sim::Network network(loop, 3);
    tcp::StackConfig stack;
    stack.iw = tcp::IwConfig::segments_of(10);
    tcp::TcpHost host(network, net::IPv4Address{10, 0, 0, 1}, stack, 3);
    http::WebConfig web;
    web.page_size = 16'000;
    host.listen(80, http::HttpServerApp::factory(web));
    network.attach(net::IPv4Address{10, 0, 0, 1}, &host);

    Services services(network);
    network.attach(services.scanner_address(), &services);
    done = false;
    core::IwEstimator estimator(services, net::IPv4Address{10, 0, 0, 1}, 80,
                                /*announced_mss=*/64, owner);
    services.handler = [&](const net::Datagram& d) { estimator.on_datagram(d); };
    estimator.start();
    while (!done && loop.step()) {
    }
    benchmark::DoNotOptimize(done);
    ++connections;
  }
  const std::uint64_t allocs = util::alloc_stats::allocations() - allocs_before;
  state.counters["allocs_per_conn"] =
      connections == 0
          ? 0.0
          : static_cast<double>(allocs) / static_cast<double>(connections);
}
BENCHMARK(BM_EstimatorConnection);

// ---- Scan-tier rates: whole scans of repro's default world (scale 16,
// seeds 42/7, 150 kpps) with §3.4's single-pass probe config. Each rate
// is targets per wall-clock second of the scan alone; the world build is
// excluded. CI gates stateful_iw_scan_rate and stateless_sweep_rate under
// exactly these names (bench_micro_gated_names ctest).

/// repro's flag defaults: the world and scan the rates are measured on.
util::Flags repro_defaults() {
  util::Flags flags;
  bench::define_common_flags(flags);
  return flags;
}

analysis::ScanOptions single_pass_http(const util::Flags& defaults, std::int64_t shards) {
  analysis::ScanOptions options =
      bench::single_pass(bench::scan_options(defaults, core::ProbeProtocol::Http));
  options.shards = static_cast<std::uint64_t>(shards);
  return options;
}

/// gbench's own items_per_second divides by CPU time; the gated rate is a
/// plain counter of the same name over the stopwatch's wall-clock seconds.
void set_wall_rate(benchmark::State& state, std::uint64_t targets, double seconds) {
  state.counters["items_per_second"] =
      seconds > 0 ? static_cast<double>(targets) / seconds : 0.0;
}

void BM_StatefulIwScan(benchmark::State& state) {
  const util::Flags defaults = repro_defaults();
  std::uint64_t targets = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = bench::make_world(defaults);
    state.ResumeTiming();
    util::Stopwatch watch;
    const auto output = analysis::run_iw_scan(*world.network, *world.internet,
                                              single_pass_http(defaults, 1));
    seconds += watch.elapsed_seconds();
    targets += output.engine.targets_started;
  }
  set_wall_rate(state, targets, seconds);
}
BENCHMARK(BM_StatefulIwScan)
    ->Name("stateful_iw_scan_rate")
    ->Unit(benchmark::kMillisecond);

/// Hot-path allocation audit of the stateless sweep, isolated from the
/// world model (which allocates when it materializes hosts): a dark sweep
/// primes templates and pools, then pre-encoded SYN-ACK and first-flight
/// data segments are fed straight into handle_packet. After warm-up the
/// transmit (template patch + pool) and receive (parse + cookie + answer)
/// paths must both run allocation-free.
double sweep_allocs_per_packet() {
  sim::EventLoop loop;
  sim::Network network(loop, 9);
  scan::SweepConfig config;
  config.seed = 11;
  const net::Cidr space = *net::Cidr::parse("10.50.0.0/24");
  scan::StatelessSweep sweep(network, config,
                             scan::TargetGenerator({space}, {}, config.seed),
                             [](const scan::SweepEvent&) {});
  sweep.start();
  while (!sweep.done() && loop.step()) {
  }
  scan::SynCookieCodec codec(config.seed);
  scan::TargetGenerator replay({space}, {}, config.seed);
  std::vector<net::Bytes> replies;
  while (const auto addr = replay.next()) {
    scan::CookieIdentity identity;
    identity.index = replay.last_cycle_index();
    const std::uint32_t cookie = codec.pack(identity, *addr);
    net::TcpSegment reply;
    reply.ip.src = *addr;
    reply.ip.dst = config.scanner_address;
    reply.tcp.src_port = config.target_port;
    reply.tcp.dst_port = config.source_port;
    reply.tcp.seq = 0x1000 + static_cast<std::uint32_t>(identity.index);
    reply.tcp.ack = cookie + 1;
    reply.tcp.flags = net::kSyn | net::kAck;
    reply.tcp.window = 65535;
    replies.push_back(net::encode(reply));
    reply.tcp.flags = net::kAck | net::kPsh;
    reply.tcp.ack = cookie + 1 + static_cast<std::uint32_t>(config.request.size());
    reply.payload = util::as_bytes("HTTP/1.1 200 OK\r\n");
    replies.push_back(net::encode(reply));
  }
  const auto feed = [&] {
    for (const net::Bytes& packet : replies) {
      sweep.handle_packet(net::PacketView(packet.data(), packet.size()));
    }
    while (loop.step()) {  // drain the answered ACKs/RSTs (unroutable)
    }
  };
  // Warm-up: grows pools, the event-loop slab, and — because each round
  // lands its delivery burst in a different timer-wheel bucket — every
  // bucket's recycled vector capacity (one wheel revolution is 64
  // buckets; 200 rounds covers all of them with margin).
  for (int round = 0; round < 200; ++round) feed();
  const std::uint64_t before = util::alloc_stats::allocations();
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) feed();
  const std::uint64_t delta = util::alloc_stats::allocations() - before;
  return static_cast<double>(delta) / static_cast<double>(kRounds * replies.size());
}

void BM_StatelessSweep(benchmark::State& state) {
  const util::Flags defaults = repro_defaults();
  std::uint64_t targets = 0;
  double seconds = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = bench::make_world(defaults);
    scan::SweepConfig config;
    config.seed = defaults.u64("scan-seed");
    scan::StatelessSweep sweep(
        *world.network, config,
        scan::TargetGenerator(world.internet->registry().scan_space(), {}, config.seed),
        [](const scan::SweepEvent&) {});
    state.ResumeTiming();
    util::Stopwatch watch;
    sweep.start();
    while (!sweep.done() && world.loop.step()) {
    }
    seconds += watch.elapsed_seconds();
    targets += sweep.stats().targets_probed;
  }
  set_wall_rate(state, targets, seconds);
  state.counters["allocs_per_packet"] = sweep_allocs_per_packet();
}
BENCHMARK(BM_StatelessSweep)
    ->Name("stateless_sweep_rate")
    ->Unit(benchmark::kMillisecond);

/// The parallel executor's speedup: the stateful scan above at 1 and at 4
/// shards (fresh identically-seeded worlds, byte-identical records), timed
/// in real time. Ungated: the ratio depends on the runner's core count.
void BM_StatefulIwScanShards(benchmark::State& state) {
  const util::Flags defaults = repro_defaults();
  std::uint64_t targets = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto world = bench::make_world(defaults);
    state.ResumeTiming();
    targets += analysis::run_iw_scan(*world.network, *world.internet,
                                     single_pass_http(defaults, state.range(0)))
                   .engine.targets_started;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(targets));
}
BENCHMARK(BM_StatefulIwScanShards)
    ->Name("stateful_iw_scan_shards")
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // `--json <path>` / `--json=<path>` is the stable perf-harness interface;
  // it maps onto google-benchmark's file reporter so CI scripts do not
  // depend on gbench flag spellings.
  std::vector<char*> args;
  std::string out_flag;
  std::string format_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      out_flag = std::string("--benchmark_out=") + argv[i + 1];
      ++i;
    } else if (arg.starts_with("--json=")) {
      out_flag = std::string("--benchmark_out=") + (argv[i] + 7);
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
