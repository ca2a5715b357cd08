#include "inetmodel/adversarial.hpp"

#include <array>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>

#include "httpd/http_message.hpp"
#include "tcpstack/host.hpp"
#include "tls/records.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace iwscan::model {
namespace {

// `N` copies of `Byte`: the constant payload a raw endpoint's reply points at.
template <char Byte, std::size_t N>
constexpr auto kFill = [] {
  std::array<std::uint8_t, N> bytes{};
  bytes.fill(static_cast<std::uint8_t>(Byte));
  return bytes;
}();

// ---------------------------------------------------------------------------
// Raw scripted endpoints: wire-level pathologies that no real TCP stack
// would emit, played directly onto the fabric (the ScriptedServer idiom of
// tests/scripted_host_test.cpp, hardened for concurrent connections and
// lazy eviction). All scheduling is relative to this host's own packet
// arrivals, so behavior is invariant under scan interleaving.
// ---------------------------------------------------------------------------

class RawAdversary final : public sim::Endpoint {
 public:
  RawAdversary(sim::Network& network, net::IPv4Address ip,
               AdversarialBehavior behavior, std::uint64_t seed)
      : network_(network), ip_(ip), behavior_(behavior), seed_(seed) {}

  ~RawAdversary() override {
    for (auto& [key, conn] : conns_) cancel_timers(conn);
  }

  RawAdversary(const RawAdversary&) = delete;
  RawAdversary& operator=(const RawAdversary&) = delete;

  /// Eviction probe for the Internet model: no connection state left.
  [[nodiscard]] bool quiescent() const noexcept override { return conns_.empty(); }

  void handle_packet(net::PacketView bytes) override {
    const auto datagram = net::decode_datagram(bytes);
    if (!datagram) return;
    const auto* segment = std::get_if<net::TcpSegment>(&*datagram);
    if (segment == nullptr) return;
    const std::uint32_t key = conn_key(segment->tcp.src_port, segment->tcp.dst_port);

    if (segment->tcp.has(net::kRst)) {
      erase_conn(key);
      return;
    }

    if (segment->tcp.has(net::kSyn)) {
      Conn& conn = conns_[key];
      conn.peer = segment->ip.src;
      conn.peer_port = segment->tcp.src_port;
      conn.local_port = segment->tcp.dst_port;
      conn.isn = static_cast<std::uint32_t>(util::mix64(seed_, key));
      touch(key, conn);
      const std::uint16_t window =
          behavior_ == AdversarialBehavior::ZeroWindow ? 0 : 65535;
      reply(conn, conn.isn, segment->tcp.seq + 1, net::kSyn | net::kAck, window, {});
      return;
    }

    const auto it = conns_.find(key);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    touch(key, conn);

    if (behavior_ == AdversarialBehavior::Tarpit) return;  // deaf forever

    if (!segment->payload.empty() && !conn.burst_sent) {
      conn.burst_sent = true;
      conn.request_end =
          segment->tcp.seq + static_cast<std::uint32_t>(segment->payload.size());
      on_request(key, conn);
      return;
    }
    if (conn.burst_sent && segment->payload.empty() && segment->tcp.has(net::kAck) &&
        !conn.verify_answered) {
      conn.verify_answered = true;
      on_verify_ack(conn);
    }
  }

 private:
  struct Conn {
    net::IPv4Address peer;
    std::uint16_t peer_port = 0;
    std::uint16_t local_port = 0;
    std::uint32_t isn = 0;
    std::uint32_t request_end = 0;  // ack covering the scanner's request
    bool burst_sent = false;
    bool verify_answered = false;
    int dripped = 0;  // slowloris bytes sent so far
    sim::EventId rto = sim::kNullEvent;
    sim::EventId aux = sim::kNullEvent;
    sim::EventId expiry = sim::kNullEvent;
  };

  [[nodiscard]] static std::uint32_t conn_key(std::uint16_t peer_port,
                                              std::uint16_t local_port) noexcept {
    return (std::uint32_t{peer_port} << 16) | local_port;
  }

  [[nodiscard]] std::uint32_t data_seq(const Conn& conn,
                                       std::uint32_t offset) const noexcept {
    return conn.isn + 1 + offset;
  }

  void on_request(std::uint32_t key, Conn& conn) {
    switch (behavior_) {
      case AdversarialBehavior::ZeroWindow:
        // Consume the request, then stall: the window never opens.
        reply(conn, data_seq(conn, 0), conn.request_end, net::kAck, 0, {});
        return;

      case AdversarialBehavior::MssViolator: {
        // Four segments of 1000 B against the announced 64 B MSS, with an
        // honest RTO retransmission so the estimator still converges.
        for (std::uint32_t i = 0; i < 4; ++i) {
          reply(conn, data_seq(conn, i * 1000), conn.request_end, net::kAck, 65535,
                kFill<'M', 1000>);
        }
        conn.rto = loop().schedule(sim::sec(1), [this, key] {
          if (Conn* c = find_conn(key)) {
            c->rto = sim::kNullEvent;
            reply(*c, data_seq(*c, 0), c->request_end, net::kAck, 65535,
                  kFill<'M', 1000>);
          }
        });
        return;
      }

      case AdversarialBehavior::NoRetransmit:
        // One burst, then nothing — the RTO-based IW boundary never fires.
        for (std::uint32_t i = 0; i < 8; ++i) {
          reply(conn, data_seq(conn, i * 64), conn.request_end, net::kAck, 65535,
                kFill<'N', 64>);
        }
        return;

      case AdversarialBehavior::RstInjector:
        // Data starts flowing, then the stream is torn down mid-response.
        for (std::uint32_t i = 0; i < 3; ++i) {
          reply(conn, data_seq(conn, i * 64), conn.request_end, net::kAck, 65535,
                kFill<'R', 64>);
        }
        conn.aux = loop().schedule(sim::msec(100), [this, key] {
          if (Conn* c = find_conn(key)) {
            c->aux = sim::kNullEvent;
            reply(*c, data_seq(*c, 3 * 64), c->request_end, net::kRst | net::kAck, 0,
                  {});
            erase_conn(key);
          }
        });
        return;

      case AdversarialBehavior::Slowloris:
        // One payload byte every 500 ms, never retransmitted: stalls any
        // collector that waits for a burst to complete.
        drip(key);
        return;

      case AdversarialBehavior::FinBeforeData:
        // Accept the request, close immediately: FIN with zero payload.
        reply(conn, data_seq(conn, 0), conn.request_end,
              net::kAck | net::kFin | net::kPsh, 65535, {});
        return;

      case AdversarialBehavior::ShrinkingRetransmit:
        // [0,256) now, the straddling [192,448) shortly after, then a
        // "retransmission" of [0,256): ranges that rewrite stream history.
        reply(conn, data_seq(conn, 0), conn.request_end, net::kAck, 65535,
              kFill<'S', 256>);
        conn.aux = loop().schedule(sim::msec(200), [this, key] {
          if (Conn* c = find_conn(key)) {
            c->aux = sim::kNullEvent;
            reply(*c, data_seq(*c, 192), c->request_end, net::kAck, 65535,
                  kFill<'T', 256>);
          }
        });
        conn.rto = loop().schedule(sim::sec(1), [this, key] {
          if (Conn* c = find_conn(key)) {
            c->rto = sim::kNullEvent;
            reply(*c, data_seq(*c, 0), c->request_end, net::kAck, 65535, kFill<'S', 256>);
          }
        });
        return;

      case AdversarialBehavior::Tarpit:
      case AdversarialBehavior::RedirectLoop:
      case AdversarialBehavior::TlsFatalAlert:
        return;  // tarpit is deaf; the others never use the raw endpoint
    }
  }

  void on_verify_ack(Conn& conn) {
    loop().cancel(conn.rto);
    conn.rto = sim::kNullEvent;
    if (behavior_ == AdversarialBehavior::MssViolator) {
      // Fresh data released by the ACK — the MSS violator is otherwise a
      // perfectly IW-limited sender.
      reply(conn, data_seq(conn, 4 * 1000), conn.request_end, net::kAck, 65535,
            kFill<'V', 1000>);
    }
    // Everyone else: silence. The scanner's teardown RST erases the conn.
  }

  void drip(std::uint32_t key) {
    Conn* conn = find_conn(key);
    if (conn == nullptr) return;
    conn->aux = loop().schedule(sim::msec(500), [this, key] {
      Conn* c = find_conn(key);
      if (c == nullptr) return;
      c->aux = sim::kNullEvent;
      reply(*c, data_seq(*c, static_cast<std::uint32_t>(c->dripped)), c->request_end,
            net::kAck | net::kPsh, 65535, kFill<'z', 1>);
      ++c->dripped;
      if (c->dripped < 40) drip(key);  // bounded: ~20 s of dripping
    });
  }

  void touch(std::uint32_t key, Conn& conn) {
    // Idle backstop: the scanner's teardown RST is the normal erase signal,
    // but it can be lost on an impaired path — expire the state instead of
    // pinning the host in memory forever.
    loop().cancel(conn.expiry);
    conn.expiry = loop().schedule(sim::sec(120), [this, key] {
      if (Conn* c = find_conn(key)) {
        c->expiry = sim::kNullEvent;
        erase_conn(key);
      }
    });
  }

  [[nodiscard]] Conn* find_conn(std::uint32_t key) {
    const auto it = conns_.find(key);
    return it == conns_.end() ? nullptr : &it->second;
  }

  void erase_conn(std::uint32_t key) {
    const auto it = conns_.find(key);
    if (it == conns_.end()) return;
    cancel_timers(it->second);
    conns_.erase(it);
  }

  void cancel_timers(Conn& conn) {
    loop().cancel(conn.rto);
    loop().cancel(conn.aux);
    loop().cancel(conn.expiry);
    conn.rto = conn.aux = conn.expiry = sim::kNullEvent;
  }

  void reply(const Conn& conn, std::uint32_t seq, std::uint32_t ack,
             std::uint8_t flags, std::uint16_t window,
             std::span<const std::uint8_t> payload) {
    net::TcpSegment segment;
    segment.ip.src = ip_;
    segment.ip.dst = conn.peer;
    segment.tcp.src_port = conn.local_port;
    segment.tcp.dst_port = conn.peer_port;
    segment.tcp.seq = seq;
    segment.tcp.ack = ack;
    segment.tcp.flags = flags;
    segment.tcp.window = window;
    segment.payload = payload;
    net::PacketBuf packet = network_.pool().acquire(net::encoded_size(segment));
    net::encode_into(segment, packet.bytes());
    network_.send(std::move(packet));
  }

  [[nodiscard]] sim::EventLoop& loop() noexcept { return network_.loop(); }

  sim::Network& network_;
  net::IPv4Address ip_;
  AdversarialBehavior behavior_;
  std::uint64_t seed_;
  std::unordered_map<std::uint32_t, Conn> conns_;
};

// ---------------------------------------------------------------------------
// Application-layer pathologies riding the real TCP stack.
// ---------------------------------------------------------------------------

/// Infinite 301 loop: "/" and "/loop-b" redirect to "/loop-a", "/loop-a"
/// redirects to "/loop-b". Purely path-based, so the loop is stateless
/// across connections and invariant under lazy host eviction.
class RedirectLoopApp final : public tcp::Application {
 public:
  void on_data(tcp::TcpConnection& conn, std::span<const std::uint8_t> data) override {
    if (responded_) return;
    switch (reader_.feed(util::as_text(data))) {
      case http::RequestStatus::NeedMore:
        return;
      case http::RequestStatus::Invalid:
        conn.abort();
        return;
      case http::RequestStatus::Complete:
        break;
    }
    responded_ = true;
    // A relative Location is outside ResponseHead's vocabulary, so the two
    // responses stay literal.
    static constexpr std::string_view kToA =
        "HTTP/1.1 301 Moved Permanently\r\nServer: loopd\r\nLocation: /loop-a\r\n"
        "Connection: close\r\nContent-Length: 0\r\n\r\n";
    static constexpr std::string_view kToB =
        "HTTP/1.1 301 Moved Permanently\r\nServer: loopd\r\nLocation: /loop-b\r\n"
        "Connection: close\r\nContent-Length: 0\r\n\r\n";
    conn.send(reader_.request().target == "/loop-a" ? kToB : kToA);
    conn.close();
  }

 private:
  http::RequestReader reader_;
  bool responded_ = false;
};

/// TLS fatal alert mid-handshake: a fatal handshake_failure alert record
/// instead of a ServerHello, then an orderly close.
class TlsAlertApp final : public tcp::Application {
 public:
  void on_data(tcp::TcpConnection& conn, std::span<const std::uint8_t>) override {
    if (sent_) return;
    sent_ = true;
    static constexpr auto kAlert =
        tls::fatal_alert_record(tls::AlertDescription::HandshakeFailure);
    conn.send(std::span<const std::uint8_t>(kAlert));
    conn.close();
  }

 private:
  bool sent_ = false;
};

}  // namespace

std::unique_ptr<sim::Endpoint> make_adversarial_host(sim::Network& network,
                                                     net::IPv4Address ip,
                                                     AdversarialBehavior behavior,
                                                     std::uint64_t seed) {
  switch (behavior) {
    case AdversarialBehavior::RedirectLoop:
    case AdversarialBehavior::TlsFatalAlert: {
      tcp::StackConfig stack;  // stock Linux stack; the app is the pathology
      auto host = std::make_unique<tcp::TcpHost>(network, ip, stack, seed);
      if (behavior == AdversarialBehavior::RedirectLoop) {
        host->listen(80, [](net::IPv4Address, std::uint16_t) {
          return std::make_unique<RedirectLoopApp>();
        });
      } else {
        host->listen(443, [](net::IPv4Address, std::uint16_t) {
          return std::make_unique<TlsAlertApp>();
        });
      }
      return host;
    }
    case AdversarialBehavior::Tarpit:
    case AdversarialBehavior::ZeroWindow:
    case AdversarialBehavior::MssViolator:
    case AdversarialBehavior::NoRetransmit:
    case AdversarialBehavior::RstInjector:
    case AdversarialBehavior::Slowloris:
    case AdversarialBehavior::FinBeforeData:
    case AdversarialBehavior::ShrinkingRetransmit: {
      return std::make_unique<RawAdversary>(network, ip, behavior, seed);
    }
  }
  return nullptr;
}

}  // namespace iwscan::model
