#include "tcpstack/host.hpp"

#include <algorithm>
#include <utility>

#include "util/rng.hpp"

namespace iwscan::tcp {

TcpHost::TcpHost(sim::Network& network, net::IPv4Address address, StackConfig config,
                 std::uint64_t seed)
    : network_(network), address_(address), config_(config), seed_(seed) {}

TcpHost::~TcpHost() {
  if (reap_event_ != sim::kNullEvent) network_.loop().cancel(reap_event_);
}

void TcpHost::listen(std::uint16_t port, AppFactory factory,
                     std::optional<IwConfig> iw) {
  if (Listener* listener = find_listener(port)) {
    listener->factory = std::move(factory);
    listener->iw = iw;
    return;
  }
  listeners_.push_back(Listener{port, std::move(factory), iw});
}

TcpHost::Listener* TcpHost::find_listener(std::uint16_t port) noexcept {
  for (Listener& listener : listeners_) {
    if (listener.port == port) return &listener;
  }
  return nullptr;
}

std::vector<TcpHost::Connection>::iterator TcpHost::find_connection(
    const ConnKey& key) noexcept {
  return std::find_if(connections_.begin(), connections_.end(),
                      [&key](const Connection& entry) {
                        return !entry.closed && entry.key == key;
                      });
}

// iwlint: allow(unreached) -- pins connection teardown on RST, give-up and close
std::size_t TcpHost::active_connections() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(connections_.begin(), connections_.end(),
                    [](const Connection& entry) { return !entry.closed; }));
}

void TcpHost::handle_packet(net::PacketView bytes) {
  const auto datagram = net::decode_datagram(bytes);
  if (!datagram) return;  // corrupt on the wire; real stacks drop silently
  if (const auto* tcp = std::get_if<net::TcpSegment>(&*datagram)) {
    if (tcp->ip.dst != address_) return;
    on_tcp(*tcp);
  } else if (const auto* icmp = std::get_if<net::IcmpDatagram>(&*datagram)) {
    if (icmp->ip.dst != address_) return;
    on_icmp(*icmp);
  }
}

void TcpHost::on_tcp(const net::TcpSegment& segment) {
  const ConnKey key{segment.ip.src, segment.tcp.src_port, segment.tcp.dst_port};

  if (const auto it = find_connection(key); it != connections_.end()) {
    it->connection->on_segment(segment);
    return;
  }

  if (segment.tcp.has(net::kSyn) && !segment.tcp.has(net::kAck)) {
    const Listener* listener = find_listener(segment.tcp.dst_port);
    if (listener == nullptr) {
      send_reset_for(segment);
      return;
    }
    auto app = listener->factory(segment.ip.src, segment.tcp.src_port);
    StackConfig conn_config = config_;
    if (listener->iw) conn_config.iw = *listener->iw;
    // ISN derived deterministically from the 4-tuple; good enough for a
    // simulation (no off-path attacker to defend against).
    const std::uint32_t isn = static_cast<std::uint32_t>(util::mix64(
        seed_, (std::uint64_t{segment.ip.src.value()} << 32) |
                   (std::uint64_t{segment.tcp.src_port} << 16) | segment.tcp.dst_port));
    auto connection = std::make_unique<TcpConnection>(
        network_.loop(), conn_config, address_, segment.tcp.dst_port, segment.ip.src,
        segment.tcp.src_port, segment, isn, std::move(app),
        [this](const net::TcpSegment& out) { transmit(out); },
        [this, key](TcpConnection&) {
          // Only mark it: the connection may be deep in its own call stack
          // right now.
          if (const auto it = find_connection(key); it != connections_.end()) {
            it->closed = true;
            if (reap_event_ == sim::kNullEvent) {
              reap_event_ = network_.loop().schedule(sim::SimTime::zero(),
                                                     [this] { reap_closed(); });
            }
          }
        });
    connections_.push_back(Connection{key, false, std::move(connection)});
    return;
  }

  // Non-SYN segment for an unknown connection (e.g. late packet after the
  // connection aborted): answer with RST as real stacks do.
  if (!segment.tcp.has(net::kRst)) send_reset_for(segment);
}

void TcpHost::send_reset_for(const net::TcpSegment& offending) {
  net::TcpSegment rst;
  rst.ip.src = address_;
  rst.ip.dst = offending.ip.src;
  rst.ip.ttl = 64;
  rst.tcp.src_port = offending.tcp.dst_port;
  rst.tcp.dst_port = offending.tcp.src_port;
  if (offending.tcp.has(net::kAck)) {
    rst.tcp.seq = offending.tcp.ack;
    rst.tcp.flags = net::kRst;
  } else {
    rst.tcp.seq = 0;
    rst.tcp.ack = offending.tcp.seq + offending.seq_length();
    rst.tcp.flags = net::kRst | net::kAck;
  }
  transmit(rst);
}

void TcpHost::on_icmp(const net::IcmpDatagram& datagram) {
  if (datagram.icmp.type != net::IcmpType::Echo) return;
  net::IcmpDatagram reply;
  reply.ip.src = address_;
  reply.ip.dst = datagram.ip.src;
  reply.ip.ttl = 64;
  reply.icmp.type = net::IcmpType::EchoReply;
  reply.icmp.code = 0;
  reply.icmp.id_or_unused = datagram.icmp.id_or_unused;
  reply.icmp.seq_or_mtu = datagram.icmp.seq_or_mtu;
  reply.icmp.payload = datagram.icmp.payload;
  net::PacketBuf packet = network_.pool().acquire(net::encoded_size(reply));
  net::encode_into(reply, packet.bytes());
  network_.send(std::move(packet));
}

void TcpHost::transmit(const net::TcpSegment& segment) {
  net::PacketBuf packet = network_.pool().acquire(net::encoded_size(segment));
  net::encode_into(segment, packet.bytes());
  network_.send(std::move(packet));
}

void TcpHost::reap_closed() {
  reap_event_ = sim::kNullEvent;
  std::erase_if(connections_, [](const Connection& entry) { return entry.closed; });
}

}  // namespace iwscan::tcp
