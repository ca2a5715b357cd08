// SessionServices bound straight to the network, with no scan engine in
// between: drives one estimator or prober at a time against hand-built
// hosts (the §3.5 testbed, the §4.3 virtual-host probes, unit tests).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "netbase/packet.hpp"
#include "netsim/network.hpp"
#include "scanner/scan_engine.hpp"

namespace iwscan::scan {

class DirectServices final : public SessionServices, public sim::Endpoint {
 public:
  static constexpr net::IPv4Address kAddress{192, 0, 2, 1};

  explicit DirectServices(sim::Network& network) : network_(network) {
    network_.attach(kAddress, this);
  }
  ~DirectServices() override { network_.detach(kAddress); }
  DirectServices(const DirectServices&) = delete;
  DirectServices& operator=(const DirectServices&) = delete;

  /// Receives every datagram addressed to the scanner; nullptr drops them.
  void set_handler(std::function<void(const net::Datagram&)> handler) {
    handler_ = std::move(handler);
  }

  void handle_packet(net::PacketView bytes) override {
    const auto datagram = net::decode_datagram(bytes);
    if (datagram && handler_) handler_(*datagram);
  }

  void send_packet(net::Bytes bytes) override { network_.send(std::move(bytes)); }
  sim::EventLoop& loop() override { return network_.loop(); }
  net::IPv4Address scanner_address() const override { return kAddress; }
  /// Sequential ports and seeds, restarting with every instance.
  std::uint16_t allocate_port(net::IPv4Address) override { return next_port_++; }
  std::uint64_t session_seed(net::IPv4Address) override {
    return seed_ += 0x9e3779b97f4a7c15ULL;
  }

 private:
  sim::Network& network_;
  std::function<void(const net::Datagram&)> handler_;
  std::uint16_t next_port_ = 40000;
  std::uint64_t seed_ = 0x5eed;
};

}  // namespace iwscan::scan
