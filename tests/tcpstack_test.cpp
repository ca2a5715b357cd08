// Server-side TCP stack: handshake, OS MSS clamping, IW policies, slow
// start, RTO retransmission, FIN placement, RST paths — the sender
// behaviours the whole measurement methodology rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <random>
#include <string>

#include "httpd/http_server.hpp"
#include "netsim/network.hpp"
#include "tcpstack/host.hpp"
#include "tcpstack/seq.hpp"
#include "util/bytes.hpp"

namespace iwscan::tcp {
namespace {

const net::IPv4Address kClientIp{192, 0, 2, 9};
const net::IPv4Address kHostIp{10, 0, 0, 1};

/// Raw segment-level client: crafts exact segments, records replies.
class RawClient final : public sim::Endpoint {
 public:
  explicit RawClient(sim::Network& network) : network_(network) {
    network_.attach(kClientIp, this);
  }
  ~RawClient() override { network_.detach(kClientIp); }

  void handle_packet(net::PacketView bytes) override {
    // `received` views the bytes, so keep a copy of them.
    const net::Bytes& kept = wire_.emplace_back(bytes.begin(), bytes.end());
    const auto datagram = net::decode_datagram(kept);
    ASSERT_TRUE(datagram.has_value());
    if (const auto* segment = std::get_if<net::TcpSegment>(&*datagram)) {
      received.push_back(*segment);
    }
  }

  void send(std::uint32_t seq, std::uint32_t ack, std::uint8_t flags,
            std::uint16_t window, net::Bytes payload = {},
            std::optional<std::uint16_t> mss = std::nullopt,
            std::uint16_t dst_port = 80, std::uint16_t src_port = 40000) {
    net::TcpSegment segment;
    segment.ip.src = kClientIp;
    segment.ip.dst = kHostIp;
    segment.tcp.src_port = src_port;
    segment.tcp.dst_port = dst_port;
    segment.tcp.seq = seq;
    segment.tcp.ack = ack;
    segment.tcp.flags = flags;
    segment.tcp.window = window;
    segment.tcp.mss = mss;
    segment.payload = payload;
    network_.send(net::encode(segment));
  }

  /// Data segments received (non-empty payload).
  [[nodiscard]] std::vector<const net::TcpSegment*> data_segments() const {
    std::vector<const net::TcpSegment*> out;
    for (const auto& segment : received) {
      if (!segment.payload.empty()) out.push_back(&segment);
    }
    return out;
  }

  [[nodiscard]] const net::TcpSegment* syn_ack() const {
    for (const auto& segment : received) {
      if (segment.tcp.has(net::kSyn) && segment.tcp.has(net::kAck)) return &segment;
    }
    return nullptr;
  }

  std::vector<net::TcpSegment> received;

 private:
  sim::Network& network_;
  std::deque<net::Bytes> wire_;
};

/// App that immediately sends a fixed payload (optionally closing after).
class FixedResponseApp final : public Application {
 public:
  FixedResponseApp(std::size_t bytes, bool close) : bytes_(bytes), close_(close) {}
  void on_data(TcpConnection& conn, std::span<const std::uint8_t>) override {
    if (sent_) return;
    sent_ = true;
    const std::string body(bytes_, 'D');
    conn.send(body);
    if (close_) conn.close();
  }

 private:
  std::size_t bytes_;
  bool close_;
  bool sent_ = false;
};

struct Rig {
  sim::EventLoop loop;
  sim::Network network{loop, 5};
  std::unique_ptr<TcpHost> host;
  std::unique_ptr<RawClient> client;

  explicit Rig(StackConfig config, std::size_t response_bytes = 10'000,
               bool close_after = false) {
    sim::PathConfig path;
    path.latency = sim::msec(5);
    network.set_default_path(path);
    host = std::make_unique<TcpHost>(network, kHostIp, config, 77);
    host->listen(80, [response_bytes, close_after](net::IPv4Address, std::uint16_t) {
      return std::make_unique<FixedResponseApp>(response_bytes, close_after);
    });
    network.attach(kHostIp, host.get());
    client = std::make_unique<RawClient>(network);
  }

  /// SYN → SYN/ACK → ACK+request; returns the server ISN.
  std::uint32_t open_and_request(std::uint16_t mss, std::uint16_t window = 65535) {
    client->send(1000, 0, net::kSyn, window, {}, mss);
    loop.run_until(loop.now() + sim::msec(50));
    const auto* syn_ack = client->syn_ack();
    EXPECT_NE(syn_ack, nullptr);
    if (!syn_ack) return 0;
    const std::uint32_t server_isn = syn_ack->tcp.seq;
    client->send(1001, server_isn + 1, net::kAck | net::kPsh, window,
                 net::to_bytes("PING"));
    return server_isn;
  }
};

StackConfig config_with_iw(std::uint32_t segments,
                           OsProfile os = OsProfile::Linux) {
  StackConfig config;
  config.os = os;
  config.iw = IwConfig::segments_of(segments);
  return config;
}

// ------------------------------------------------------- seq helpers -----

TEST(SeqArithmetic, WrapAround) {
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));
  EXPECT_TRUE(seq_gt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(seq_ge(5u, 5u));
  EXPECT_EQ(seq_diff(0x10u, 0xfffffff0u), 0x20u);
}

// ------------------------------------------------------- handshake -------

TEST(TcpStack, HandshakeAnnouncesOwnMss) {
  Rig rig(config_with_iw(10));
  net::Bytes syn_ack_bytes;  // the host's first packet, as the fabric carried it
  rig.network.set_tap([&syn_ack_bytes](net::PacketView bytes) {
    if (syn_ack_bytes.empty() && net::peek_source(bytes) == kHostIp) {
      syn_ack_bytes.assign(bytes.begin(), bytes.end());
    }
  });
  rig.client->send(1000, 0, net::kSyn, 65535, {}, 64);
  rig.loop.run_until(sim::msec(100));
  const auto* syn_ack = rig.client->syn_ack();
  ASSERT_NE(syn_ack, nullptr);
  EXPECT_EQ(syn_ack->tcp.ack, 1001u);
  EXPECT_EQ(syn_ack->tcp.mss, 1460);
  // Its own MSS and nothing else: a 24-byte TCP header whose options are
  // `02 04 05 b4`, so no SACK-permitted and no window scale.
  ASSERT_EQ(syn_ack_bytes.size(), 20u + 24u);
  EXPECT_EQ(syn_ack_bytes[20 + 12] >> 4, 6) << "data offset in words";
  EXPECT_EQ(net::Bytes(syn_ack_bytes.begin() + 40, syn_ack_bytes.end()),
            (net::Bytes{2, 4, 0x05, 0xb4}));
}

TEST(TcpStack, ClosedPortAnswersRst) {
  Rig rig(config_with_iw(10));
  rig.client->send(1000, 0, net::kSyn, 65535, {}, 64, /*dst_port=*/81);
  rig.loop.run_until(sim::msec(100));
  ASSERT_EQ(rig.client->received.size(), 1u);
  EXPECT_TRUE(rig.client->received[0].tcp.has(net::kRst));
  EXPECT_EQ(rig.client->received[0].tcp.ack, 1001u);
}

TEST(TcpStack, RetransmittedSynGetsSynAckAgain) {
  Rig rig(config_with_iw(10));
  rig.client->send(1000, 0, net::kSyn, 65535, {}, 64);
  rig.loop.run_until(sim::msec(50));
  rig.client->send(1000, 0, net::kSyn, 65535, {}, 64);  // dup SYN
  rig.loop.run_until(sim::msec(100));
  int syn_acks = 0;
  for (const auto& segment : rig.client->received) {
    if (segment.tcp.has(net::kSyn)) ++syn_acks;
  }
  EXPECT_EQ(syn_acks, 2);
}

// -------------------------------------------------- IW burst behaviour ---

class IwBurst : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(IwBurst, InitialBurstIsExactlyIwSegments) {
  const std::uint32_t iw = GetParam();
  Rig rig(config_with_iw(iw), 64 * 1024);
  rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));  // before the 1 s RTO

  const auto data = rig.client->data_segments();
  ASSERT_EQ(data.size(), iw) << "burst must be exactly the IW";
  for (const auto* segment : data) {
    EXPECT_LE(segment->payload.size(), 64u);
  }
}

INSTANTIATE_TEST_SUITE_P(CommonIws, IwBurst,
                         ::testing::Values(1u, 2u, 3u, 4u, 10u, 16u, 48u));

TEST(TcpStack, LinuxClampsTinyMssTo64) {
  Rig rig(config_with_iw(4), 64 * 1024);
  rig.open_and_request(16);  // announce an absurd 16 B
  rig.loop.run_until(sim::msec(300));
  const auto data = rig.client->data_segments();
  ASSERT_EQ(data.size(), 4u);
  EXPECT_EQ(data[0]->payload.size(), 64u) << "Linux refuses MSS < 64";
}

TEST(TcpStack, WindowsClampsTo536) {
  Rig rig(config_with_iw(10, OsProfile::Windows), 64 * 1024);
  rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  const auto data = rig.client->data_segments();
  ASSERT_EQ(data.size(), 10u);
  EXPECT_EQ(data[0]->payload.size(), 536u);
}

TEST(TcpStack, ByteIwSendsBudgetWorthOfSegments) {
  StackConfig config;
  config.iw = IwConfig::bytes_of(1536);
  Rig rig(config, 64 * 1024);
  rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  EXPECT_EQ(rig.client->data_segments().size(), 24u);  // 1536 / 64
}

TEST(TcpStack, FlowControlCapsBelowIw) {
  // Peer window of 3 segments < IW 10: flow control must win.
  Rig rig(config_with_iw(10), 64 * 1024);
  rig.open_and_request(64, /*window=*/192);
  rig.loop.run_until(sim::msec(300));
  EXPECT_EQ(rig.client->data_segments().size(), 3u);
}

// -------------------------------------------- RTO and retransmission -----

TEST(TcpStack, RtoRetransmitsFirstUnackedSegmentOnly) {
  Rig rig(config_with_iw(10), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  const std::size_t burst = rig.client->data_segments().size();
  ASSERT_EQ(burst, 10u);

  rig.loop.run_until(sim::msec(1600));  // past the 1 s RTO
  const auto data = rig.client->data_segments();
  ASSERT_EQ(data.size(), 11u) << "exactly one retransmission";
  EXPECT_EQ(data.back()->tcp.seq, isn + 1) << "must be the FIRST segment";
}

TEST(TcpStack, RtoBacksOffExponentially) {
  Rig rig(config_with_iw(2), 64 * 1024);
  rig.open_and_request(64);
  rig.loop.run_until(sim::sec(8));
  // Retransmissions at ~1, 3, 7 s after the burst → at least 3 by 8 s.
  const auto data = rig.client->data_segments();
  int first_seg_copies = 0;
  for (const auto* segment : data) {
    if (segment->tcp.seq == data[0]->tcp.seq) ++first_seg_copies;
  }
  EXPECT_GE(first_seg_copies, 3);
  EXPECT_LE(first_seg_copies, 5);
}

TEST(TcpStack, GivesUpAfterMaxRetransmits) {
  Rig rig(config_with_iw(2), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  // A duplicate ACK every 10 s keeps the idle timer from firing first; it
  // acknowledges nothing new, so the RTO keeps backing off (1, 2, 4, ...
  // s) until the retries run out.
  for (int tick = 1; tick <= 12; ++tick) {
    rig.loop.run_until(sim::sec(10 * tick));
    if (rig.host->active_connections() == 0) break;
    rig.client->send(1005, isn + 1, net::kAck, 65535);
  }
  EXPECT_EQ(rig.host->active_connections(), 0u)
      << "connection must abort after retry exhaustion";
  int first_seg_copies = 0;
  for (const auto* segment : rig.client->data_segments()) {
    if (segment->tcp.seq == isn + 1) ++first_seg_copies;
  }
  EXPECT_EQ(first_seg_copies, 1 + TcpConnection::kMaxRetransmits);
}

TEST(TcpStack, SilentPeerSeesFourRetransmissionsThenIdleClose) {
  // A peer that never acknowledges the flight: the RTO doubles from 1 s, so
  // the first segment is resent 1, 3, 7 and 15 s after the flight. The
  // next resend would be due at 31 s, but the idle timer, armed by the
  // request, closes the connection at 30 s first; the retries never run out.
  Rig rig(config_with_iw(2), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  const sim::SimTime request_sent = rig.loop.now();
  std::vector<sim::SimTime> copies;  // arrivals of the first segment
  std::optional<sim::SimTime> closed_at;
  std::size_t seen = 0;
  const sim::SimTime step = sim::msec(10);
  for (sim::SimTime t = request_sent + step; t <= sim::sec(70); t += step) {
    rig.loop.run_until(t);
    for (; seen < rig.client->received.size(); ++seen) {
      const auto& segment = rig.client->received[seen];
      if (!segment.payload.empty() && segment.tcp.seq == isn + 1) copies.push_back(t);
    }
    if (!closed_at && rig.host->active_connections() == 0) closed_at = t;
  }
  ASSERT_EQ(copies.size(), 5u) << "the flight and four retransmissions";
  const std::int64_t resend_after_s[] = {1, 3, 7, 15};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_LE(copies[i + 1] - copies[0], sim::sec(resend_after_s[i]) + step) << i;
    EXPECT_GE(copies[i + 1] - copies[0], sim::sec(resend_after_s[i]) - step) << i;
  }
  ASSERT_TRUE(closed_at.has_value());
  EXPECT_LE(*closed_at - request_sent, TcpConnection::kIdleTimeout + sim::msec(50));
  EXPECT_LT(*closed_at - copies[0], sim::sec(31)) << "closed before the 31 s resend";
}

TEST(TcpStack, MovedSendIsAdoptedOrAppended) {
  // send(Bytes&&) adopts the bytes when nothing is queued and appends them
  // otherwise: either way the stream is the sends in order.
  class TwoSendsApp final : public Application {
   public:
    void on_data(TcpConnection& conn, std::span<const std::uint8_t>) override {
      conn.send(net::Bytes{'a', 'b'});  // adopted: the buffer is empty
      conn.send(std::string_view("cd"));
      conn.send(net::Bytes{'e', 'f'});  // appended behind "abcd"
    }
  };
  Rig rig(config_with_iw(10));
  rig.host->listen(80, [](net::IPv4Address, std::uint16_t) {
    return std::make_unique<TwoSendsApp>();
  });
  rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  std::string stream;
  for (const auto* segment : rig.client->data_segments()) {
    stream += util::as_text(segment->payload);
  }
  EXPECT_EQ(stream, "abcdef");
}

TEST(TcpStack, AckReleasesMoreDataAndGrowsCwnd) {
  Rig rig(config_with_iw(4), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  ASSERT_EQ(rig.client->data_segments().size(), 4u);

  // ACK the full burst with a big window: slow start doubles-ish the cwnd.
  rig.client->send(1005, isn + 1 + 4 * 64, net::kAck, 65535);
  rig.loop.run_until(sim::msec(600));
  const auto after = rig.client->data_segments().size();
  EXPECT_GE(after, 8u);   // at least 4 more released
  EXPECT_LE(after, 13u);  // bounded by slow-start growth (4 + acked)
}

TEST(TcpStack, SmallVerifyWindowReleasesTwoSegments) {
  // The estimator's 2·MSS verify window (§3.1): after acking the burst the
  // server may send at most two more segments.
  Rig rig(config_with_iw(10), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  ASSERT_EQ(rig.client->data_segments().size(), 10u);

  rig.client->send(1005, isn + 1 + 10 * 64, net::kAck, 128);
  rig.loop.run_until(sim::msec(600));
  EXPECT_EQ(rig.client->data_segments().size(), 12u);
}

// ----------------------------------------------------- FIN semantics -----

TEST(TcpStack, FinPiggybacksWhenDataFitsInIw) {
  Rig rig(config_with_iw(10), /*response=*/200, /*close=*/true);
  rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  const auto& received = rig.client->received;
  bool fin_on_last_data = false;
  for (const auto& segment : received) {
    if (!segment.payload.empty() && segment.tcp.has(net::kFin)) {
      fin_on_last_data = true;
    }
  }
  EXPECT_TRUE(fin_on_last_data)
      << "FIN must ride on the last data segment when everything fits";
}

TEST(TcpStack, NoFinWhileIwLimitsUnsentData) {
  // Response far exceeds the IW: the FIN cannot be sent while unsent data
  // queues behind the congestion window — the paper's key HTTP signal.
  Rig rig(config_with_iw(4), /*response=*/10'000, /*close=*/true);
  rig.open_and_request(64);
  rig.loop.run_until(sim::sec(4));  // burst + several RTOs, no ACKs from us
  for (const auto& segment : rig.client->received) {
    EXPECT_FALSE(segment.tcp.has(net::kFin))
        << "FIN leaked although data is still queued";
  }
}

TEST(TcpStack, FinAfterDrainWhenPeerAcksEverything) {
  Rig rig(config_with_iw(4), /*response=*/1000, /*close=*/true);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  // Keep ACKing whatever arrived until the FIN shows up.
  for (int round = 0; round < 10; ++round) {
    std::uint32_t max_end = isn + 1;
    bool fin_seen = false;
    for (const auto& segment : rig.client->received) {
      if (!segment.payload.empty()) {
        const std::uint32_t end =
            segment.tcp.seq + static_cast<std::uint32_t>(segment.payload.size());
        if (seq_gt(end, max_end)) max_end = end;
      }
      fin_seen |= segment.tcp.has(net::kFin);
    }
    if (fin_seen) break;
    rig.client->send(1005, max_end, net::kAck, 65535);
    rig.loop.run_until(rig.loop.now() + sim::msec(100));
  }
  bool fin_seen = false;
  for (const auto& segment : rig.client->received) {
    fin_seen |= segment.tcp.has(net::kFin);
  }
  EXPECT_TRUE(fin_seen);
}

// ------------------------------------------------------- RST / abort -----

TEST(TcpStack, PeerRstTearsDownConnection) {
  Rig rig(config_with_iw(10), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  EXPECT_EQ(rig.host->active_connections(), 1u);
  rig.client->send(1005, isn + 1, net::kRst | net::kAck, 0);
  rig.loop.run_until(rig.loop.now() + sim::msec(100));
  EXPECT_EQ(rig.host->active_connections(), 0u);
}

TEST(TcpStack, LateSegmentToDeadConnectionGetsRst) {
  Rig rig(config_with_iw(10), 64 * 1024);
  rig.client->send(5000, 777, net::kAck, 1024, net::to_bytes("stale"));
  rig.loop.run_until(sim::msec(100));
  ASSERT_FALSE(rig.client->received.empty());
  EXPECT_TRUE(rig.client->received.back().tcp.has(net::kRst));
}

TEST(TcpStack, IdleConnectionTimesOut) {
  // A silent app leaves nothing to retransmit, so only the idle timer,
  // armed by the request, can close the connection.
  Rig rig(config_with_iw(10), 0, false);
  rig.open_and_request(64);
  rig.loop.run_until(sim::msec(200));
  EXPECT_EQ(rig.host->active_connections(), 1u);
  rig.loop.run_until(TcpConnection::kIdleTimeout - sim::sec(1));
  EXPECT_EQ(rig.host->active_connections(), 1u);
  rig.loop.run_until(TcpConnection::kIdleTimeout + sim::sec(1));
  EXPECT_EQ(rig.host->active_connections(), 0u);
}

TEST(TcpStack, PerPortIwOverride) {
  // §4.3 per-service IWs: port 80 uses IW2, port 8080 IW10.
  Rig rig(config_with_iw(2), 64 * 1024);
  rig.host->listen(8080,
                   [](net::IPv4Address, std::uint16_t) {
                     return std::make_unique<FixedResponseApp>(64 * 1024, false);
                   },
                   IwConfig::segments_of(10));

  rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  EXPECT_EQ(rig.client->data_segments().size(), 2u);

  // Second connection to the override port.
  net::TcpSegment syn;
  rig.client->send(2000, 0, net::kSyn, 65535, {}, 64, 8080);
  rig.loop.run_until(rig.loop.now() + sim::msec(50));
  const net::TcpSegment* syn_ack = nullptr;
  for (const auto& segment : rig.client->received) {
    if (segment.tcp.has(net::kSyn) && segment.tcp.src_port == 8080) {
      syn_ack = &segment;
    }
  }
  ASSERT_NE(syn_ack, nullptr);
  rig.client->send(2001, syn_ack->tcp.seq + 1, net::kAck | net::kPsh, 65535,
                   net::to_bytes("PING"), std::nullopt, 8080);
  rig.loop.run_until(rig.loop.now() + sim::msec(300));
  std::size_t port_8080_data = 0;
  for (const auto& segment : rig.client->received) {
    if (segment.tcp.src_port == 8080 && !segment.payload.empty()) {
      ++port_8080_data;
    }
  }
  EXPECT_EQ(port_8080_data, 10u);
}

TEST(TcpStack, RelistenReplacesFactoryAndOverride) {
  // Host-wide IW2; relistening on port 80 swaps in an IW10 override and a
  // factory that counts its calls. The original factory must never run.
  Rig rig(config_with_iw(2), 64 * 1024);
  int replaced_calls = 0;
  rig.host->listen(80,
                   [&replaced_calls](net::IPv4Address, std::uint16_t) {
                     ++replaced_calls;
                     return std::make_unique<FixedResponseApp>(64 * 1024, false);
                   },
                   IwConfig::segments_of(10));
  rig.open_and_request(64);
  rig.loop.run_until(sim::msec(300));
  EXPECT_EQ(replaced_calls, 1);
  EXPECT_EQ(rig.client->data_segments().size(), 10u);
}

/// Answers each request with "port=<peer port> got=<request>", so a reply
/// shows which connection's app produced it.
class PortEchoApp final : public Application {
 public:
  explicit PortEchoApp(std::uint16_t peer_port) : peer_port_(peer_port) {}
  void on_data(TcpConnection& conn, std::span<const std::uint8_t> data) override {
    conn.send("port=" + std::to_string(peer_port_) +
              " got=" + std::string(data.begin(), data.end()));
  }

 private:
  std::uint16_t peer_port_;
};

TEST(TcpStack, ManyConnectionsDemultiplexAndDrainInAnyOrder) {
  constexpr std::uint16_t kConnections = 64;
  constexpr std::uint16_t kFirstPort = 41000;
  constexpr std::uint32_t kClientIsn = 5000;
  for (const std::uint32_t order_seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(order_seed);
    Rig rig(config_with_iw(10));
    rig.host->listen(80, [](net::IPv4Address, std::uint16_t peer_port) {
      return std::make_unique<PortEchoApp>(peer_port);
    });
    for (std::uint16_t i = 0; i < kConnections; ++i) {
      rig.client->send(kClientIsn, 0, net::kSyn, 65535, {}, 1460, 80, kFirstPort + i);
    }
    rig.loop.run_until(rig.loop.now() + sim::msec(50));

    std::vector<std::uint32_t> server_isn(kConnections, 0);
    std::size_t syn_acks = 0;
    for (const auto& segment : rig.client->received) {
      if (!segment.tcp.has(net::kSyn)) continue;
      const std::uint16_t i = segment.tcp.dst_port - kFirstPort;
      ASSERT_LT(i, kConnections);
      EXPECT_EQ(segment.tcp.ack, kClientIsn + 1);
      server_isn[i] = segment.tcp.seq;
      ++syn_acks;
    }
    ASSERT_EQ(syn_acks, kConnections);
    EXPECT_EQ(rig.host->active_connections(), kConnections);

    const auto request = [](std::uint16_t i) {
      return "req" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    };
    for (std::uint16_t i = 0; i < kConnections; ++i) {
      rig.client->send(kClientIsn + 1, server_isn[i] + 1, net::kAck | net::kPsh, 65535,
                       net::to_bytes(request(i)), std::nullopt, 80, kFirstPort + i);
    }
    rig.loop.run_until(rig.loop.now() + sim::msec(50));
    std::size_t replies = 0;
    for (const auto* segment : rig.client->data_segments()) {
      const std::uint16_t port = segment->tcp.dst_port;
      const std::uint16_t i = port - kFirstPort;
      ASSERT_LT(i, kConnections);
      EXPECT_EQ(segment->tcp.seq, server_isn[i] + 1);
      EXPECT_EQ(std::string(segment->payload.begin(), segment->payload.end()),
                "port=" + std::to_string(port) + " got=" + request(i));
      ++replies;
    }
    EXPECT_EQ(replies, kConnections);

    // Reset the connections in a shuffled order: the first half arrive
    // together (several closes per loop tick), the rest one at a time.
    std::vector<std::uint16_t> order(kConnections);
    for (std::uint16_t i = 0; i < kConnections; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(order_seed));
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::uint16_t i = order[k];
      rig.client->send(kClientIsn + 1 + static_cast<std::uint32_t>(request(i).size()),
                       server_isn[i] + 1, net::kRst | net::kAck, 0, {}, std::nullopt,
                       80, kFirstPort + i);
      if (k >= kConnections / 2) {
        rig.loop.run_until(rig.loop.now() + sim::msec(6));
        EXPECT_EQ(rig.host->active_connections(), kConnections - 1 - k);
      }
    }
    rig.loop.run_until(rig.loop.now() + sim::msec(50));
    EXPECT_EQ(rig.host->active_connections(), 0u);
    EXPECT_TRUE(rig.host->quiescent());

    // A SYN to a port nobody listens on is still refused.
    rig.client->received.clear();
    rig.client->send(9000, 0, net::kSyn, 65535, {}, 64, /*dst_port=*/81);
    rig.loop.run_until(rig.loop.now() + sim::msec(50));
    ASSERT_EQ(rig.client->received.size(), 1u);
    EXPECT_TRUE(rig.client->received[0].tcp.has(net::kRst));
    EXPECT_EQ(rig.client->received[0].tcp.ack, 9001u);
  }
}

TEST(TcpStack, OutOfOrderRequestIsDroppedNotDelivered) {
  // Segment beyond rcv_nxt: server must not deliver it to the app.
  Rig rig(config_with_iw(10), 5000, false);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(50));
  const std::size_t before = rig.client->data_segments().size();
  // Send a segment with a gap (seq jumped by 100).
  rig.client->send(1200, isn + 1, net::kAck | net::kPsh, 65535,
                   net::to_bytes("GAPPED"));
  rig.loop.run_until(rig.loop.now() + sim::msec(100));
  // The app already responded once to the first request; the gapped data
  // must not create a second response burst beyond what cwnd allows.
  EXPECT_GE(rig.client->data_segments().size(), before);
  EXPECT_EQ(rig.host->active_connections(), 1u);
}

TEST(TcpStack, IcmpEchoIsAnswered) {
  Rig rig(config_with_iw(10));
  net::IcmpDatagram echo;
  echo.ip.src = kClientIp;
  echo.ip.dst = kHostIp;
  echo.icmp.type = net::IcmpType::Echo;
  echo.icmp.id_or_unused = 42;
  echo.icmp.seq_or_mtu = 7;
  const net::Bytes payload = {1, 2, 3};
  echo.icmp.payload = payload;
  rig.network.send(net::encode(echo));
  rig.loop.run_until(sim::msec(100));
  ASSERT_EQ(rig.client->received.size(), 0u);  // no TCP
  // The echo reply is ICMP; RawClient only records TCP — check via stats.
  EXPECT_EQ(rig.network.stats().packets_delivered, 2u);  // echo + reply
}

TEST(TcpStack, PeerFinThenServerCloseRunsLastAck) {
  // Peer half-closes first (CloseWait), app answers and closes (LastAck),
  // peer ACKs the FIN → fully closed.
  Rig rig(config_with_iw(10), /*response=*/100, /*close=*/true);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(200));

  // Compute how much the server sent, ACK it all together with our FIN.
  std::uint32_t max_end = isn + 1;
  for (const auto& segment : rig.client->received) {
    if (!segment.payload.empty()) {
      const std::uint32_t end =
          segment.tcp.seq + static_cast<std::uint32_t>(segment.payload.size());
      if (seq_gt(end, max_end)) max_end = end;
    }
  }
  bool server_fin = false;
  for (const auto& segment : rig.client->received) {
    server_fin |= segment.tcp.has(net::kFin);
  }
  EXPECT_TRUE(server_fin);

  // ACK data+FIN, then send our own FIN.
  rig.client->send(1005, max_end + 1, net::kAck, 65535);
  rig.client->send(1005, max_end + 1, net::kFin | net::kAck, 65535);
  rig.loop.run_until(rig.loop.now() + sim::msec(200));
  EXPECT_EQ(rig.host->active_connections(), 0u);
}

TEST(TcpStack, ZeroWindowStallsSender) {
  Rig rig(config_with_iw(10), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(200));
  ASSERT_EQ(rig.client->data_segments().size(), 10u);

  // ACK the burst but advertise a zero window: nothing more may flow.
  rig.client->send(1005, isn + 1 + 640, net::kAck, 0);
  rig.loop.run_until(rig.loop.now() + sim::msec(500));
  EXPECT_EQ(rig.client->data_segments().size(), 10u);

  // Reopen the window: data resumes.
  rig.client->send(1005, isn + 1 + 640, net::kAck, 65535);
  rig.loop.run_until(rig.loop.now() + sim::msec(500));
  EXPECT_GT(rig.client->data_segments().size(), 10u);
}

TEST(TcpStack, DuplicateAcksDoNotInflateCwnd) {
  Rig rig(config_with_iw(4), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(200));
  ASSERT_EQ(rig.client->data_segments().size(), 4u);

  // Three duplicate ACKs of nothing new: cwnd must not grow, nothing new
  // may be sent (we do not model fast retransmit).
  for (int i = 0; i < 3; ++i) {
    rig.client->send(1005, isn + 1, net::kAck, 65535);
  }
  rig.loop.run_until(rig.loop.now() + sim::msec(300));
  EXPECT_EQ(rig.client->data_segments().size(), 4u);
}

TEST(TcpStack, PartialAckAdvancesWindow) {
  Rig rig(config_with_iw(4), 64 * 1024);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(200));
  ASSERT_EQ(rig.client->data_segments().size(), 4u);

  // ACK only the first two segments: room for ~2-3 more opens up
  // (2 acked + slow-start growth).
  rig.client->send(1005, isn + 1 + 128, net::kAck, 65535);
  rig.loop.run_until(rig.loop.now() + sim::msec(300));
  const auto count = rig.client->data_segments().size();
  EXPECT_GE(count, 6u);
  EXPECT_LE(count, 8u);
}

TEST(TcpStack, RequestRetransmissionIsReAcked) {
  // The client retransmits its request (its copy of our ACK got lost):
  // the server must answer with a pure ACK, not deliver the data twice.
  Rig rig(config_with_iw(10), 3000, false);
  const std::uint32_t isn = rig.open_and_request(64);
  rig.loop.run_until(sim::msec(200));
  const std::size_t data_before = rig.client->data_segments().size();

  rig.client->send(1001, isn + 1, net::kAck | net::kPsh, 65535,
                   net::to_bytes("PING"));
  rig.loop.run_until(rig.loop.now() + sim::msec(200));
  // No duplicate response burst (the app would have been invoked again).
  EXPECT_EQ(rig.client->data_segments().size(), data_before);
}

TEST(IwConfig, InitialCwndMath) {
  EXPECT_EQ(IwConfig::segments_of(10).initial_cwnd(64), 640u);
  EXPECT_EQ(IwConfig::segments_of(10).initial_cwnd(536), 5360u);
  EXPECT_EQ(IwConfig::bytes_of(4096).initial_cwnd(64), 4096u);
  EXPECT_EQ(IwConfig::bytes_of(4096).initial_cwnd(128), 4096u);
  // Byte budget below one MSS still allows a full segment.
  EXPECT_EQ(IwConfig::bytes_of(100).initial_cwnd(536), 536u);
}

TEST(EffectiveMss, ClampRules) {
  EXPECT_EQ(effective_mss(OsProfile::Linux, 16, 1460), 64);
  EXPECT_EQ(effective_mss(OsProfile::Linux, 64, 1460), 64);
  EXPECT_EQ(effective_mss(OsProfile::Linux, 128, 1460), 128);
  EXPECT_EQ(effective_mss(OsProfile::Windows, 64, 1460), 536);
  EXPECT_EQ(effective_mss(OsProfile::Windows, 535, 1460), 536);
  EXPECT_EQ(effective_mss(OsProfile::Windows, 1400, 1460), 1400);
  // Own interface limit always caps.
  EXPECT_EQ(effective_mss(OsProfile::Linux, 9000, 1460), 1460);
}

}  // namespace
}  // namespace iwscan::tcp
