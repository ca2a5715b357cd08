// A simulated host: one IP address, a TCP demultiplexer with listening
// ports, and an ICMP echo responder. Owns its connections.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "netsim/network.hpp"
#include "tcpstack/connection.hpp"
#include "util/annotations.hpp"

namespace iwscan::tcp {

class TcpHost : public sim::Endpoint {
 public:
  /// Creates the application protocol instance for an accepted connection.
  using AppFactory = std::function<std::unique_ptr<Application>(
      net::IPv4Address peer, std::uint16_t peer_port)>;

  TcpHost(sim::Network& network, net::IPv4Address address, StackConfig config,
          std::uint64_t seed);
  ~TcpHost() override;

  TcpHost(const TcpHost&) = delete;
  TcpHost& operator=(const TcpHost&) = delete;

  /// Accept connections on `port`, creating one Application per connection.
  /// `config_override` replaces the host-wide StackConfig for connections
  /// on this port — used for per-service IW customization (the paper finds
  /// e.g. Akamai running different IWs per service, §4.3).
  void listen(std::uint16_t port, AppFactory factory,
              std::optional<StackConfig> config_override = std::nullopt);

  void handle_packet(net::PacketView bytes) override;

  [[nodiscard]] net::IPv4Address address() const noexcept { return address_; }
  [[nodiscard]] const StackConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t active_connections() const noexcept {
    return connections_.size();
  }
  /// True when no connection (live or awaiting cleanup) remains — the
  /// Internet model uses this to decide when a lazy host can be evicted.
  [[nodiscard]] bool quiescent() const noexcept {
    return connections_.empty() && graveyard_.empty();
  }

 private:
  struct ConnKey {
    net::IPv4Address peer;
    std::uint16_t peer_port;
    std::uint16_t local_port;
    bool operator==(const ConnKey&) const = default;
  };
  struct ConnKeyHash {
    std::size_t operator()(const ConnKey& key) const noexcept {
      const std::uint64_t packed = (std::uint64_t{key.peer.value()} << 32) |
                                   (std::uint64_t{key.peer_port} << 16) |
                                   key.local_port;
      return static_cast<std::size_t>(packed * 0x9E3779B97F4A7C15ULL >> 13);
    }
  };

  void on_tcp(const net::TcpSegment& segment);
  void on_icmp(const net::IcmpDatagram& datagram);
  void send_reset_for(const net::TcpSegment& offending);
  IWSCAN_HOT void transmit(const net::Ipv4Header& ip, const net::TcpHeader& tcp,
                           std::span<const std::uint8_t> payload);
  void reap_graveyard();

  sim::Network& network_;
  net::IPv4Address address_;
  StackConfig config_;
  std::uint64_t seed_;

  struct Listener {
    AppFactory factory;
    std::optional<StackConfig> config_override;
  };
  std::unordered_map<std::uint16_t, Listener> listeners_;
  std::unordered_map<ConnKey, std::unique_ptr<TcpConnection>, ConnKeyHash> connections_;
  // Connections that closed during their own callbacks; freed on the next
  // event-loop tick so no live stack frame references them.
  std::vector<std::unique_ptr<TcpConnection>> graveyard_;
  sim::EventId reap_event_ = sim::kNullEvent;
};

}  // namespace iwscan::tcp
