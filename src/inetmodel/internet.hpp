// The simulated Internet: lazily materializes hosts (TCP stack + HTTP/TLS
// applications + path characteristics) from the pure ground-truth function
// when a probe first reaches their address, and evicts them again once
// quiescent — so a sweep over millions of addresses holds only the
// in-flight hosts in memory, mirroring how the real Internet holds no
// per-scanner state at all.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "inetmodel/as_registry.hpp"
#include "inetmodel/profiles.hpp"
#include "netsim/network.hpp"
#include "tcpstack/host.hpp"

namespace iwscan::model {

class InternetModel {
 public:
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

  [[nodiscard]] std::size_t live_hosts() const noexcept { return hosts_.size(); }
  [[nodiscard]] std::uint64_t hosts_instantiated() const noexcept {
    return instantiated_;
  }

 private:
  /// A materialized host: modeled TcpHost or adversarial raw endpoint,
  /// plus the quiescence probe the eviction sweep polls.
  struct HostEntry {
    std::unique_ptr<sim::Endpoint> endpoint;
    std::function<bool()> quiescent;
  };

  sim::Endpoint* resolve(net::IPv4Address ip);
  [[nodiscard]] std::unique_ptr<tcp::TcpHost> build_host(net::IPv4Address ip,
                                                         const GroundTruth& gt);
  void sweep();

  sim::Network& network_;
  ModelConfig config_;
  AsRegistry registry_;
  std::unordered_map<net::IPv4Address, HostEntry> hosts_;
  sim::EventId sweep_event_ = sim::kNullEvent;
  std::uint64_t instantiated_ = 0;
};

}  // namespace iwscan::model
