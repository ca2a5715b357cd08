// The simulated Internet: lazily materializes hosts (TCP stack + HTTP/TLS
// applications + path characteristics) from the pure ground-truth function
// when a probe first reaches their address, and evicts them again once
// quiescent — so a sweep over millions of addresses holds only the
// in-flight hosts in memory, mirroring how the real Internet holds no
// per-scanner state at all.
//
// A materialized host holds only its stack and two listeners whose
// factories capture {model, ip}. The HTTP and TLS daemon configs are
// derived from truth(ip) when a SYN is accepted and live with that
// connection, so a host the sweep touched once and left idle costs a few
// hundred bytes, not a WebConfig, a TlsConfig and a server header.
#pragma once

#include <memory>
#include <unordered_map>

#include "httpd/http_server.hpp"
#include "inetmodel/as_registry.hpp"
#include "inetmodel/profiles.hpp"
#include "netsim/network.hpp"
#include "tcpstack/host.hpp"
#include "tls/tls_server_config.hpp"

namespace iwscan::model {

class InternetModel {
 public:
  /// Uniform extra one-way delay on every modeled host's path.
  static constexpr sim::SimTime kPathJitter = sim::msec(3);
  /// Period of the eviction poll that drops quiescent hosts.
  static constexpr sim::SimTime kSweepInterval = sim::sec(5);

  InternetModel(sim::Network& network, ModelConfig config);
  ~InternetModel();

  InternetModel(const InternetModel&) = delete;
  InternetModel& operator=(const InternetModel&) = delete;

  /// Register the lazy resolver with the network and start the eviction
  /// sweeper. Call once before scanning.
  void install();

  [[nodiscard]] const AsRegistry& registry() const noexcept { return registry_; }
  [[nodiscard]] const ModelConfig& config() const noexcept { return config_; }

  /// Ground truth for any address (pure; does not materialize the host).
  [[nodiscard]] GroundTruth truth(net::IPv4Address ip) const {
    return synthesize_host(registry_, config_, ip);
  }

  /// The configs a modeled host's HTTP and TLS daemons run, derived from
  /// its truth `gt` (which must be truth(ip); pure in seed and ip). Every
  /// connection accepted on port 80 or 443 gets a fresh copy.
  [[nodiscard]] http::WebConfig web_config(net::IPv4Address ip, GroundTruth gt) const;
  [[nodiscard]] tls::TlsConfig tls_config(net::IPv4Address ip, GroundTruth gt) const;

  [[nodiscard]] std::size_t live_hosts() const noexcept { return hosts_.size(); }
  [[nodiscard]] std::uint64_t hosts_instantiated() const noexcept {
    return instantiated_;
  }

 private:
  sim::Endpoint* resolve(net::IPv4Address ip);
  [[nodiscard]] std::unique_ptr<tcp::TcpHost> build_host(net::IPv4Address ip,
                                                         const GroundTruth& gt);
  /// The per-connection daemons the listeners' factories create.
  [[nodiscard]] std::unique_ptr<tcp::Application> http_app(net::IPv4Address ip) const;
  [[nodiscard]] std::unique_ptr<tcp::Application> tls_app(net::IPv4Address ip) const;
  void sweep();

  sim::Network& network_;
  ModelConfig config_;
  AsRegistry registry_;
  // Materialized hosts: modeled TcpHosts or adversarial raw endpoints.
  std::unordered_map<net::IPv4Address, std::unique_ptr<sim::Endpoint>> hosts_;
  sim::EventId sweep_event_ = sim::kNullEvent;
  std::uint64_t instantiated_ = 0;
};

}  // namespace iwscan::model
