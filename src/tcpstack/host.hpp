// A simulated host: one IP address, a TCP demultiplexer with listening
// ports, and an ICMP echo responder. Owns its connections.
//
// A host listens on a port or two and holds a handful of connections at a
// time, so both tables are flat vectors searched linearly: an idle host
// costs one small array instead of a hash table's bucket array and nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
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
  /// `iw` replaces the host-wide initial window for connections on this
  /// port — per-service IW customization (the paper finds e.g. Akamai
  /// running different IWs per service, §4.3). Listening again on a port
  /// replaces its factory and IW.
  void listen(std::uint16_t port, AppFactory factory,
              std::optional<IwConfig> iw = std::nullopt);

  void handle_packet(net::PacketView bytes) override;

  [[nodiscard]] net::IPv4Address address() const noexcept { return address_; }
  [[nodiscard]] const StackConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t active_connections() const noexcept;
  /// True when no connection (live or awaiting cleanup) remains — the
  /// Internet model uses this to decide when a lazy host can be evicted.
  [[nodiscard]] bool quiescent() const noexcept override { return connections_.empty(); }

 private:
  struct ConnKey {
    net::IPv4Address peer;
    std::uint16_t peer_port;
    std::uint16_t local_port;
    bool operator==(const ConnKey&) const = default;
  };

  void on_tcp(const net::TcpSegment& segment);
  void on_icmp(const net::IcmpDatagram& datagram);
  void send_reset_for(const net::TcpSegment& offending);
  IWSCAN_HOT void transmit(const net::TcpSegment& segment);
  void reap_closed();

  sim::Network& network_;
  net::IPv4Address address_;
  StackConfig config_;
  std::uint64_t seed_;

  struct Listener {
    std::uint16_t port;
    AppFactory factory;
    std::optional<IwConfig> iw;
  };
  struct Connection {
    ConnKey key;
    // Closed during its own callbacks: no longer demultiplexed to, and
    // freed on the next event-loop tick so no live stack frame references it.
    bool closed = false;
    std::unique_ptr<TcpConnection> connection;
  };
  [[nodiscard]] Listener* find_listener(std::uint16_t port) noexcept;
  [[nodiscard]] std::vector<Connection>::iterator find_connection(const ConnKey& key) noexcept;

  std::vector<Listener> listeners_;
  std::vector<Connection> connections_;
  sim::EventId reap_event_ = sim::kNullEvent;
};

}  // namespace iwscan::tcp
