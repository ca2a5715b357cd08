// Shared test fixture: a controlled two-node testbed (scanner ↔ one or more
// configured hosts), mirroring the paper's §3.5 validation setup where
// ground-truth IWs are known and packet traces are inspected.
#pragma once

#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "core/estimator.hpp"
#include "core/host_prober.hpp"
#include "httpd/http_server.hpp"
#include "inetmodel/adversarial.hpp"
#include "inetmodel/profiles.hpp"
#include "netbase/packet.hpp"
#include "netsim/network.hpp"
#include "scanner/direct_services.hpp"
#include "tcpstack/host.hpp"
#include "tls/tls_server.hpp"
#include "util/strings.hpp"

namespace iwscan::test {

inline constexpr net::IPv4Address kScannerIp = scan::DirectServices::kAddress;

using scan::DirectServices;

class Testbed {
 public:
  explicit Testbed(std::uint64_t seed = 1)
      : network_(loop_, seed), services_(network_) {
    sim::PathConfig path;
    path.latency = sim::msec(10);
    network_.set_default_path(path);
  }

  sim::EventLoop& loop() { return loop_; }
  sim::Network& network() { return network_; }
  DirectServices& services() { return services_; }

  tcp::TcpHost& add_http_host(net::IPv4Address ip, const tcp::StackConfig& stack,
                              http::WebConfig web) {
    auto host = std::make_unique<tcp::TcpHost>(network_, ip, stack, 99);
    host->listen(80, http::HttpServerApp::factory(std::move(web)));
    network_.attach(ip, host.get());
    hosts_.push_back(std::move(host));
    return *hosts_.back();
  }

  tcp::TcpHost& add_tls_host(net::IPv4Address ip, const tcp::StackConfig& stack,
                             tls::TlsConfig config) {
    auto host = std::make_unique<tcp::TcpHost>(network_, ip, stack, 99);
    host->listen(443, tls::TlsServerApp::factory(std::move(config)));
    network_.attach(ip, host.get());
    hosts_.push_back(std::move(host));
    return *hosts_.back();
  }

  /// Run one estimation connection; returns the observation.
  core::ConnObservation estimate(net::IPv4Address target, std::uint16_t port,
                                 std::uint16_t announced_mss, net::Bytes request) {
    core::ConnObservation result;
    bool done = false;
    core::FixedRequestOwner owner(std::move(request),
                                  [&](const core::ConnObservation& observation) {
                                    result = observation;
                                    done = true;
                                  });
    core::IwEstimator estimator(services_, target, port, announced_mss, owner);
    services_.set_handler(
        [&](const net::Datagram& datagram) { estimator.on_datagram(datagram); });
    estimator.start();
    while (!done && loop_.step()) {
    }
    services_.set_handler(nullptr);
    return result;
  }

  /// Run a full multi-probe host session; returns the host record.
  core::HostScanRecord probe_host(net::IPv4Address target,
                                  const core::IwScanConfig& config) {
    return core::probe_host(services_, target, config);
  }

  /// Record every TCP segment put on the wire, in injection order (the
  /// sender-side vantage point), into `segments`, and its bytes as the
  /// fabric carried them into `wire` when given (same index). A decoded
  /// segment views its bytes, so the testbed keeps a copy of them for as
  /// long as it lives.
  void tap_segments(std::vector<net::TcpSegment>& segments,
                    std::vector<net::Bytes>* wire = nullptr) {
    network_.set_tap([this, &segments, wire](net::PacketView bytes) {
      const net::Bytes& kept = tapped_.emplace_back(bytes.begin(), bytes.end());
      const auto datagram = net::decode_datagram(kept);
      if (!datagram) return;
      if (const auto* segment = std::get_if<net::TcpSegment>(&*datagram)) {
        segments.push_back(*segment);
        if (wire != nullptr) wire->push_back(kept);
      }
    });
  }

  /// Standard HTTP request the strategies would send first.
  static net::Bytes http_get(net::IPv4Address host, std::string_view path = "/") {
    std::string req = "GET " + std::string(path) + " HTTP/1.1\r\nHost: " +
                      host.to_string() + "\r\nConnection: close\r\n\r\n";
    return net::to_bytes(req);
  }

 private:
  sim::EventLoop loop_;
  sim::Network network_;
  DirectServices services_;
  std::vector<std::unique_ptr<tcp::TcpHost>> hosts_;
  std::deque<net::Bytes> tapped_;  // the bytes tap_segments' segments view
};

// ---------------------------------------------------------------------------
// Scenario DSL: one hostile host vs. the full scan engine (not the bare
// prober) so every run also exercises demux, pacing, budgets and teardown.
// Each scenario is pure data — the battery in adversarial_test.cpp is a
// table of these.
// ---------------------------------------------------------------------------

/// One adversarial-internet scenario: the hostile behavior to install, how
/// to probe it, and what the scan is expected to conclude.
struct Scenario {
  std::string_view name;
  model::AdversarialBehavior behavior{};
  core::ProbeProtocol protocol = core::ProbeProtocol::Http;
  core::HostOutcome expect_outcome{};
  core::ProbeAnomaly expect_anomaly{};
  scan::SessionBudget budget{};  // engine defaults unless overridden
  int max_redirect_hops = 1;     // probe-side redirect budget
  int max_connections = 2;
  /// Virtual-time ceiling for the whole run — generous; the real guarantee
  /// under test is that the engine finishes on its own well before this.
  sim::SimTime deadline = sim::sec(900);
};

struct ScenarioResult {
  core::HostScanRecord record;
  scan::EngineStats stats;
  std::size_t live_sessions = 0;  // engine sessions alive after the run
  sim::SimTime elapsed{};         // virtual time from start() to done()
  bool completed = false;         // done() reached before the deadline
};

/// Run one scenario to completion on a fresh single-host world. The target
/// allowlist is a /32, so exactly one record is produced.
inline ScenarioResult run_scenario(const Scenario& scenario,
                                   std::uint64_t scan_seed = 7) {
  const net::IPv4Address target{10, 66, 0, 1};

  sim::EventLoop loop;
  sim::Network network(loop, 1);
  sim::PathConfig path;
  path.latency = sim::msec(10);
  network.set_default_path(path);

  const auto host =
      model::make_adversarial_host(network, target, scenario.behavior, 0xfeed);
  network.attach(target, host.get());

  core::IwScanConfig probe;
  probe.protocol = scenario.protocol;
  probe.port = scenario.protocol == core::ProbeProtocol::Http ? 80 : 443;
  probe.max_redirect_hops = scenario.max_redirect_hops;
  probe.max_connections = scenario.max_connections;

  ScenarioResult result;
  core::IwProbeModule module(
      probe, [&](const core::HostScanRecord& r) { result.record = r; });

  scan::EngineConfig config;
  config.scanner_address = kScannerIp;
  config.rate_pps = 1000;
  config.max_outstanding = 16;
  config.seed = scan_seed;
  config.budget = scenario.budget;

  scan::GeneratorTargetSource targets(
      scan::TargetGenerator({net::Cidr{target, 32}}, {}, scan_seed, 1.0));
  scan::ScanEngine engine(network, config, targets, module);
  const sim::SimTime start = loop.now();
  engine.start();
  while (!engine.done() && loop.now() - start < scenario.deadline && loop.step()) {
  }
  result.completed = engine.done();
  result.elapsed = loop.now() - start;
  result.stats = engine.stats();
  result.live_sessions = engine.live_sessions();
  network.detach(target);
  return result;
}

/// Scan seed for seed-sweep CI lanes: IWSCAN_SCAN_SEED overrides the
/// default, so the same binaries can be replayed under several seeds.
inline std::uint64_t env_scan_seed(std::uint64_t fallback = 7) {
  const char* raw = std::getenv("IWSCAN_SCAN_SEED");
  if (raw == nullptr) return fallback;
  const auto parsed = util::parse_u64(raw);
  return parsed ? *parsed : fallback;
}

}  // namespace iwscan::test
