// TLS record framing, handshake codecs, synthetic certificates, and the
// server's first-flight behaviour (§3.3's counterparty).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "netsim/network.hpp"
#include "tcpstack/host.hpp"
#include "tls/cert.hpp"
#include "tls/handshake.hpp"
#include "tls/records.hpp"
#include "tls/tls_server.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace iwscan::tls {
namespace {

// ------------------------------------------------------------ records ----

/// A payload framed as one record by the reference fragmenter.
net::Bytes one_record(ContentType type, const net::Bytes& payload) {
  net::Bytes wire;
  encode_fragmented(type, kTls12, payload, wire);
  return wire;
}

TEST(Records, FramesInPlace) {
  const net::Bytes wire = one_record(ContentType::Handshake, {1, 2, 3, 4, 5});
  ASSERT_EQ(wire.size(), 10u);
  const RecordFrame record = frame_record(wire);
  ASSERT_EQ(record.status, RecordFrame::Status::Complete);
  EXPECT_EQ(record.type, ContentType::Handshake);
  EXPECT_EQ(record.version, kTls12);
  EXPECT_EQ(net::Bytes(record.payload.begin(), record.payload.end()),
            (net::Bytes{1, 2, 3, 4, 5}));
  EXPECT_EQ(record.payload.data(), wire.data() + kRecordHeaderBytes);
  EXPECT_EQ(record.size(), wire.size());
}

TEST(Records, IncompleteRecordNeedsMore) {
  // Every strict prefix — 1–4 header bytes included — neither frames nor
  // trips Malformed; the record frames once its last byte is there.
  const net::Bytes wire = one_record(ContentType::Handshake, net::Bytes(100, 0xaa));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_EQ(frame_record(std::span<const std::uint8_t>(wire).first(cut)).status,
              RecordFrame::Status::NeedMore)
        << "cut at " << cut;
  }
  EXPECT_EQ(frame_record(wire).status, RecordFrame::Status::Complete);
}

TEST(Records, MultipleRecordsInOneBuffer) {
  net::Bytes wire;
  for (std::uint8_t i = 0; i < 3; ++i) {
    encode_fragmented(ContentType::Alert, kTls12, net::Bytes{i}, wire);
  }
  std::span<const std::uint8_t> rest(wire);
  for (std::uint8_t i = 0; i < 3; ++i) {
    const RecordFrame record = frame_record(rest);
    ASSERT_EQ(record.status, RecordFrame::Status::Complete);
    EXPECT_EQ(record.payload[0], i);
    rest = rest.subspan(record.size());
  }
  EXPECT_TRUE(rest.empty());
}

TEST(Records, FragmentationSplitsLargePayloads) {
  net::Bytes payload(40'000, 0x5c);
  net::Bytes wire;
  encode_fragmented(ContentType::Handshake, kTls12, payload, wire);
  EXPECT_EQ(wire.size(), payload.size() + 3 * kRecordHeaderBytes);

  std::span<const std::uint8_t> rest(wire);
  std::size_t total = 0;
  int records = 0;
  while (!rest.empty()) {
    const RecordFrame record = frame_record(rest);
    ASSERT_EQ(record.status, RecordFrame::Status::Complete);
    EXPECT_LE(record.payload.size(), kMaxRecordPayload);
    total += record.payload.size();
    ++records;
    rest = rest.subspan(record.size());
  }
  EXPECT_EQ(total, 40'000u);
  EXPECT_EQ(records, 3);
}

TEST(Records, OversizedLengthRejected) {
  // Valid type/version but a length beyond the framer's tolerance.
  EXPECT_EQ(frame_record(net::Bytes{22, 3, 3, 0xff, 0xff}).status,
            RecordFrame::Status::Malformed);
  // kMaxRecordPayload + 256 is still tolerated, one byte more is not.
  constexpr std::size_t kTolerated = kMaxRecordPayload + 256;
  EXPECT_EQ(frame_record(net::Bytes{22, 3, 3, kTolerated >> 8, kTolerated & 0xff}).status,
            RecordFrame::Status::NeedMore);
  EXPECT_EQ(frame_record(net::Bytes{22, 3, 3, kTolerated >> 8, (kTolerated + 1) & 0xff})
                .status,
            RecordFrame::Status::Malformed);
}

TEST(Records, MalformedTypeDetected) {
  EXPECT_EQ(frame_record(net::Bytes{99, 3, 3, 0, 1, 0}).status,
            RecordFrame::Status::Malformed);
  EXPECT_EQ(frame_record(net::Bytes{19, 3, 3, 0, 1, 0}).status,
            RecordFrame::Status::Malformed);
  EXPECT_EQ(frame_record(net::Bytes{24, 3, 3, 0, 1, 0}).status,
            RecordFrame::Status::Malformed);
}

TEST(Records, FatalAlertRecordBytes) {
  static constexpr auto kUnrecognizedName =
      fatal_alert_record(AlertDescription::UnrecognizedName);
  EXPECT_EQ(net::Bytes(kUnrecognizedName.begin(), kUnrecognizedName.end()),
            (net::Bytes{0x15, 0x03, 0x03, 0x00, 0x02, 0x02, 112}));
  const auto failure = fatal_alert_record(AlertDescription::HandshakeFailure);
  EXPECT_EQ(net::Bytes(failure.begin(), failure.end()),
            (net::Bytes{0x15, 0x03, 0x03, 0x00, 0x02, 0x02, 0x28}));
  // The same bytes the reference fragmenter frames the two-byte body in.
  EXPECT_EQ(net::Bytes(failure.begin(), failure.end()),
            one_record(ContentType::Alert, net::Bytes{2, 40}));
}

// ---------------------------------------------------------- handshake ----

/// The messages walk_handshakes visits in a payload, or nullopt when the
/// walk rejects it.
std::optional<std::vector<HandshakeMessage>> collect_handshakes(
    std::span<const std::uint8_t> payload) {
  std::vector<HandshakeMessage> messages;
  const bool framed = walk_handshakes(
      payload, [&messages](HandshakeMessage message) { messages.push_back(message); });
  if (!framed) return std::nullopt;
  return messages;
}

TEST(Handshake, FramingRoundTrip) {
  const net::Bytes body = {9, 9, 9};
  const auto framed = encode_handshake(HandshakeType::Certificate, body);
  const auto messages = collect_handshakes(framed);
  ASSERT_TRUE(messages);
  ASSERT_EQ(messages->size(), 1u);
  EXPECT_EQ(messages->front().type, HandshakeType::Certificate);
  EXPECT_TRUE(std::ranges::equal(messages->front().body, body));
  // Borrowed from the framed bytes, past the 4-byte handshake header.
  EXPECT_EQ(messages->front().body.data(), framed.data() + 4);
}

TEST(Handshake, ConcatenatedMessagesSplit) {
  net::Bytes flight;
  for (const auto type :
       {HandshakeType::ServerHello, HandshakeType::Certificate,
        HandshakeType::ServerHelloDone}) {
    const auto framed =
        encode_handshake(type, net::Bytes{static_cast<std::uint8_t>(type)});
    flight.insert(flight.end(), framed.begin(), framed.end());
  }
  const auto messages = collect_handshakes(flight);
  ASSERT_TRUE(messages);
  ASSERT_EQ(messages->size(), 3u);
  EXPECT_EQ((*messages)[2].type, HandshakeType::ServerHelloDone);
}

TEST(Handshake, TruncatedSplitRejected) {
  auto framed = encode_handshake(HandshakeType::ServerHello, net::Bytes(10, 0));
  framed.pop_back();
  EXPECT_FALSE(collect_handshakes(framed).has_value());
}

TEST(Handshake, TruncatedLaterMessageRejectsTheWalk) {
  // A whole first message does not save a payload whose second message runs
  // short: the walk visits the first, then reports the payload malformed.
  net::Bytes payload = encode_handshake(HandshakeType::ClientHello, net::Bytes(6, 1));
  const auto second = encode_handshake(HandshakeType::Certificate, net::Bytes(10, 2));
  payload.insert(payload.end(), second.begin(), second.end() - 1);
  std::size_t visited = 0;
  EXPECT_FALSE(walk_handshakes(payload, [&visited](HandshakeMessage) { ++visited; }));
  EXPECT_EQ(visited, 1u);
  // A lone header byte after a whole message is rejected the same way.
  payload.resize(kHandshakeHeaderBytes + 6 + 3);
  EXPECT_FALSE(collect_handshakes(payload).has_value());
}

constexpr std::uint8_t kNullCompression[] = {0};
constexpr std::array<std::uint8_t, 32> kZeroRandom{};

/// The probe's ClientHello fields: TLS 1.2, null compression, no session id.
ClientHelloFields hello_fields(std::span<const CipherSuite> suites,
                               std::optional<std::string_view> server_name,
                               bool ocsp_stapling) {
  ClientHelloFields hello;
  hello.random = kZeroRandom;
  hello.cipher_suites = suites;
  hello.compression_methods = kNullCompression;
  hello.server_name = server_name;
  hello.ocsp_stapling = ocsp_stapling;
  return hello;
}

/// A ClientHello body: the record encode_client_hello_record writes, less its
/// record and handshake headers.
net::Bytes hello_body(const ClientHelloFields& hello) {
  const net::Bytes record = encode_client_hello_record(hello, kTls10);
  return net::Bytes(record.begin() + kRecordHeaderBytes + kHandshakeHeaderBytes,
                    record.end());
}

/// True iff `view` lies inside `bytes` (an empty view lies anywhere).
bool lies_inside(std::string_view view, std::span<const std::uint8_t> bytes) {
  const std::string_view text = util::as_text(bytes);
  return view.empty() || (std::less_equal<>{}(text.data(), view.data()) &&
                          std::less_equal<>{}(view.data() + view.size(),
                                              text.data() + text.size()));
}

TEST(ClientHello, DecodesSniSuitesAndOcspInPlace) {
  const net::Bytes body =
      hello_body(hello_fields(probe_cipher_list(), "www.example.net", true));
  const auto decoded = decode_client_hello(body);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->cipher_suites.size(), 40u);
  EXPECT_TRUE(std::ranges::equal(decoded->cipher_suites, probe_cipher_list()));
  EXPECT_EQ(decoded->server_name, "www.example.net");
  EXPECT_TRUE(decoded->ocsp_stapling);
  // Views into the body: the suites right after version, random and the
  // empty session id's length octet, the name near the end.
  EXPECT_EQ(decoded->cipher_suites.wire().data(), body.data() + 2 + 32 + 1 + 2);
  EXPECT_TRUE(lies_inside(*decoded->server_name, body));
}

TEST(ClientHello, NoSniDecodesAsAbsent) {
  const CipherSuite suite[] = {0xC02F};
  const auto decoded = decode_client_hello(hello_body(hello_fields(suite, {}, false)));
  ASSERT_TRUE(decoded);
  EXPECT_FALSE(decoded->server_name.has_value());
  EXPECT_FALSE(decoded->ocsp_stapling);
}

TEST(ClientHello, EmptyAndRepeatedSniFollowTheLastWellFormedName) {
  // An empty host name is a present (empty) SNI; of two SNI extensions the
  // later one wins — unless it is malformed, which leaves the earlier one.
  const CipherSuite suite[] = {0xC02F};
  const auto empty = decode_client_hello(hello_body(hello_fields(suite, "", false)));
  ASSERT_TRUE(empty);
  ASSERT_TRUE(empty->server_name.has_value());
  EXPECT_TRUE(empty->server_name->empty());

  net::Bytes body = hello_body(hello_fields(suite, "first.example", false));
  const auto append_sni = [&body](std::uint8_t name_type, std::string_view name) {
    const std::size_t ext_length_at = 2 + 32 + 1 + 2 + 2 + 1 + 1;
    net::WireWriter writer(body);
    writer.u16(kExtServerName);
    writer.u16(static_cast<std::uint16_t>(name.size() + 5));
    writer.u16(static_cast<std::uint16_t>(name.size() + 3));
    writer.u8(name_type);
    writer.u16(static_cast<std::uint16_t>(name.size()));
    writer.raw(util::as_bytes(name));
    const std::size_t extensions = body.size() - ext_length_at - 2;
    body[ext_length_at] = static_cast<std::uint8_t>(extensions >> 8);
    body[ext_length_at + 1] = static_cast<std::uint8_t>(extensions);
  };
  append_sni(0, "second.example");
  EXPECT_EQ(decode_client_hello(body)->server_name, "second.example");
  append_sni(1, "not-a-host-name");  // name type 1: skipped
  EXPECT_EQ(decode_client_hello(body)->server_name, "second.example");
}

TEST(ClientHello, TruncatedRejected) {
  const CipherSuite suite[] = {0xC02F};
  auto body = hello_body(hello_fields(suite, {}, false));
  body.resize(20);
  EXPECT_FALSE(decode_client_hello(body).has_value());
}

TEST(ClientHello, OddSuiteByteCountRejected) {
  const CipherSuite suite[] = {0xC02F};
  auto body = hello_body(hello_fields(suite, {}, false));
  body[36] = 3;  // suite list length after version, random, session id length
  EXPECT_FALSE(decode_client_hello(body).has_value());
}

TEST(ServerHello, RoundTripWithExtras) {
  ServerHello hello;
  hello.cipher_suite = 0xC030;
  hello.ocsp_stapling = true;
  hello.extra_extension_bytes = 120;
  hello.session_id.assign(32, 7);
  const auto body = hello.encode();
  EXPECT_GT(body.size(), 150u) << "extras must inflate the hello";
  const auto decoded = ServerHello::decode(body);
  ASSERT_TRUE(decoded);
  EXPECT_EQ(decoded->cipher_suite, 0xC030);
  EXPECT_TRUE(decoded->ocsp_stapling);
  EXPECT_EQ(decoded->session_id.size(), 32u);
}

TEST(ServerHello, MalformedExtensionBlockRejected) {
  // Regression: an extension whose length runs past the block used to make
  // skip() a silent no-op and spin decode() forever. Must reject instead.
  ServerHello hello;
  hello.cipher_suite = 0xC02F;
  auto body = hello.encode();
  net::WireWriter writer(body);
  writer.u16(8);       // extensions total: 8 bytes follow
  writer.u16(0x0005);  // extension type
  writer.u16(0xffff);  // extension length far past the block
  writer.u16(0);       // filler so the loop condition holds
  EXPECT_FALSE(ServerHello::decode(body).has_value());
}

TEST(ServerHello, ExtensionTotalPastBodyRejected) {
  ServerHello hello;
  auto body = hello.encode();
  net::WireWriter writer(body);
  writer.u16(0xffff);  // announces far more extension bytes than exist
  EXPECT_FALSE(ServerHello::decode(body).has_value());
}

TEST(ClientHello, CipherLengthOverrunRejected) {
  const CipherSuite suite[] = {0xC02F};
  auto body = hello_body(hello_fields(suite, {}, false));
  // cipher_suites length field sits after version(2) + random(32) +
  // session_id_len(1): claim more suite bytes than the body holds.
  body[35] = 0xff;
  body[36] = 0xfe;
  EXPECT_FALSE(decode_client_hello(body).has_value());
}

TEST(CertificateChain, RoundTrip) {
  CertificateChain chain;
  chain.certificates.push_back(net::Bytes(1200, 1));
  chain.certificates.push_back(net::Bytes(900, 2));
  const auto decoded = CertificateChain::decode(chain.encode());
  ASSERT_TRUE(decoded);
  ASSERT_EQ(decoded->certificates.size(), 2u);
  EXPECT_EQ(decoded->certificates[0].size(), 1200u);
  EXPECT_EQ(decoded->total_certificate_bytes(), 2100u);
}

TEST(CertificateChain, BadLengthsRejected) {
  CertificateChain chain;
  chain.certificates.push_back(net::Bytes(100, 1));
  auto body = chain.encode();
  body[2] += 1;  // corrupt total length
  EXPECT_FALSE(CertificateChain::decode(body).has_value());
}

// ------------------------------------------------------------ ciphers ----

TEST(Ciphers, ProbeListHas40UniqueSuites) {
  const auto list = probe_cipher_list();
  EXPECT_EQ(list.size(), 40u);
  std::set<CipherSuite> unique(list.begin(), list.end());
  EXPECT_EQ(unique.size(), 40u);
}

TEST(Ciphers, NegotiationPrefersClientOrder) {
  const std::vector<CipherSuite> server = {0x002F, 0xC02F};
  const auto list = probe_cipher_list();
  // 0xC02F appears before 0x002F in the probe list.
  EXPECT_EQ(negotiate(list, server), 0xC02F);
}

TEST(Ciphers, ExoticSetNeverNegotiates) {
  const auto exotic = cipher_set(CipherProfile::Exotic);
  EXPECT_EQ(negotiate(probe_cipher_list(), exotic), 0);
  // All the other profiles must negotiate.
  for (const auto profile :
       {CipherProfile::Modern, CipherProfile::Standard, CipherProfile::Legacy}) {
    EXPECT_NE(negotiate(probe_cipher_list(), cipher_set(profile)), 0);
  }
}

// --------------------------------------------------------------- cert ----

class CertSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CertSize, ExactSizeAndDerFraming) {
  const auto cert = make_certificate(GetParam(), "cn=test", 5);
  EXPECT_EQ(cert.size(), std::max<std::size_t>(GetParam(), 8));
  EXPECT_EQ(cert[0], 0x30);  // DER SEQUENCE
  EXPECT_EQ(cert[1], 0x82);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CertSize,
                         ::testing::Values(8u, 36u, 640u, 2186u, 65'000u));

TEST(CertChainGen, TotalBytesIsExact) {
  for (const std::size_t total : {36u, 500u, 1200u, 2186u, 4200u, 20'000u}) {
    const auto chain = make_chain(total, "host", 11);
    EXPECT_EQ(chain.total_certificate_bytes(), std::max<std::size_t>(total, 8))
        << total;
  }
}

TEST(CertChainGen, RealisticLayout) {
  EXPECT_EQ(make_chain(600, "x", 1).certificates.size(), 1u);
  EXPECT_EQ(make_chain(2186, "x", 1).certificates.size(), 2u);
  EXPECT_EQ(make_chain(9000, "x", 1).certificates.size(), 3u);
}

TEST(CertChainGen, Deterministic) {
  EXPECT_EQ(make_chain(2186, "x", 7).encode(), make_chain(2186, "x", 7).encode());
  EXPECT_NE(make_chain(2186, "x", 7).encode(), make_chain(2186, "x", 8).encode());
}

// ------------------------------------------------- server first flight ---

/// Captures everything a TLS server sends on one connection.
struct TlsRig {
  sim::EventLoop loop;
  sim::Network network{loop, 9};
  std::unique_ptr<tcp::TcpHost> host;
  const net::IPv4Address server_ip{10, 0, 0, 2};
  const net::IPv4Address client_ip{192, 0, 2, 6};

  struct Client final : sim::Endpoint {
    sim::Network& network;
    net::IPv4Address self, server;
    net::Bytes stream;
    bool fin = false;
    std::uint32_t rcv_nxt = 0;
    std::uint32_t isn = 500;
    net::Bytes hello;
    net::Bytes split_tail;  // second ClientHello fragment, if splitting
    bool tail_sent = false;

    Client(sim::Network& n, net::IPv4Address s, net::IPv4Address d)
        : network(n), self(s), server(d) {
      network.attach(self, this);
    }
    ~Client() override { network.detach(self); }

    void start(net::Bytes client_hello) {
      hello = std::move(client_hello);
      send(isn, 0, net::kSyn, true);
    }
    void handle_packet(net::PacketView bytes) override {
      const auto datagram = net::decode_datagram(bytes);
      if (!datagram) return;
      const auto* segment = std::get_if<net::TcpSegment>(&*datagram);
      if (!segment || segment->tcp.has(net::kRst)) return;
      if (segment->tcp.has(net::kSyn)) {
        rcv_nxt = segment->tcp.seq + 1;
        send(isn + 1, rcv_nxt, net::kAck | net::kPsh, false, hello);
        return;
      }
      if (!split_tail.empty() && !tail_sent && segment->payload.empty()) {
        // The server ACKed the first fragment; deliver the rest.
        tail_sent = true;
        send(isn + 1 + static_cast<std::uint32_t>(hello.size()), rcv_nxt,
             net::kAck | net::kPsh, false, split_tail);
        return;
      }
      if (!segment->payload.empty() && segment->tcp.seq == rcv_nxt) {
        stream.insert(stream.end(), segment->payload.begin(),
                      segment->payload.end());
        rcv_nxt += static_cast<std::uint32_t>(segment->payload.size());
      }
      if (segment->tcp.has(net::kFin)) fin = true;
      send(isn + 1 + static_cast<std::uint32_t>(hello.size()), rcv_nxt, net::kAck,
           false);
    }
    void send(std::uint32_t seq, std::uint32_t ack, std::uint8_t flags, bool mss,
              net::Bytes payload = {}) {
      net::TcpSegment segment;
      segment.ip.src = self;
      segment.ip.dst = server;
      segment.tcp.src_port = 45000;
      segment.tcp.dst_port = 443;
      segment.tcp.seq = seq;
      segment.tcp.ack = ack;
      segment.tcp.flags = flags;
      segment.tcp.window = 65535;
      if (mss) segment.tcp.mss = 1460;
      segment.payload = payload;
      network.send(net::encode(segment));
    }
  };
  std::unique_ptr<Client> client;

  explicit TlsRig(TlsConfig config) {
    tcp::StackConfig stack;
    stack.iw = tcp::IwConfig::segments_of(10);
    host = std::make_unique<tcp::TcpHost>(network, server_ip, stack, 2);
    host->listen(443, TlsServerApp::factory(std::move(config)));
    network.attach(server_ip, host.get());
    client = std::make_unique<Client>(network, client_ip, server_ip);
  }

  /// Like run(), but the ClientHello is delivered in two TCP segments, cut
  /// at `cut` (its middle by default) — the record reassembly path a real
  /// fragmented handshake exercises.
  net::Bytes run_split(bool with_sni, std::size_t cut = 0) {
    net::Bytes wire = encode_client_hello_record(
        hello_fields(probe_cipher_list(),
                     with_sni ? std::optional<std::string_view>("www.example.net")
                              : std::nullopt,
                     false),
        kTls10);

    // The first part rides on the handshake ACK; the rest follows.
    if (cut == 0) cut = wire.size() / 2;
    client->split_tail.assign(wire.begin() + static_cast<std::ptrdiff_t>(cut),
                              wire.end());
    wire.resize(cut);
    client->start(wire);
    loop.run_until(loop.now() + sim::sec(5));
    return client->stream;
  }

  net::Bytes run(bool with_sni, bool exotic_client = false) {
    static constexpr CipherSuite kExoticOffer[] = {0x9999};
    const net::Bytes wire = encode_client_hello_record(
        hello_fields(exotic_client ? std::span<const CipherSuite>(kExoticOffer)
                                   : probe_cipher_list(),
                     with_sni ? std::optional<std::string_view>("www.example.net")
                              : std::nullopt,
                     true),
        kTls10);
    return send(wire);
  }

  /// The server's byte stream in answer to `wire`, sent in one segment.
  net::Bytes send(net::Bytes wire) {
    client->start(std::move(wire));
    loop.run_until(loop.now() + sim::sec(5));
    return client->stream;
  }
};

struct StreamRecord {
  ContentType type;
  net::Bytes payload;
};

/// The records of a server's byte stream, up to the first one incomplete.
std::vector<StreamRecord> parse_stream(const net::Bytes& stream) {
  std::vector<StreamRecord> records;
  std::span<const std::uint8_t> rest(stream);
  for (RecordFrame record = frame_record(rest);
       record.status == RecordFrame::Status::Complete; record = frame_record(rest)) {
    records.push_back({record.type, net::Bytes(record.payload.begin(), record.payload.end())});
    rest = rest.subspan(record.size());
  }
  return records;
}

TEST(TlsServer, FirstFlightContainsFullChain) {
  TlsConfig config;
  config.chain_bytes = 3000;
  config.server_name = "unit.test";
  TlsRig rig(config);
  const auto stream = rig.run(/*with_sni=*/true);
  const auto records = parse_stream(stream);
  ASSERT_FALSE(records.empty());

  net::Bytes handshake_payload;
  for (const auto& record : records) {
    ASSERT_EQ(record.type, ContentType::Handshake);
    handshake_payload.insert(handshake_payload.end(), record.payload.begin(),
                             record.payload.end());
  }
  const auto messages = collect_handshakes(handshake_payload);
  ASSERT_TRUE(messages);
  ASSERT_GE(messages->size(), 3u);
  EXPECT_EQ((*messages)[0].type, HandshakeType::ServerHello);
  EXPECT_EQ((*messages)[1].type, HandshakeType::Certificate);
  EXPECT_EQ(messages->back().type, HandshakeType::ServerHelloDone);

  const auto chain = CertificateChain::decode((*messages)[1].body);
  ASSERT_TRUE(chain);
  EXPECT_EQ(chain->total_certificate_bytes(), 3000u);

  const auto server_hello = ServerHello::decode((*messages)[0].body);
  ASSERT_TRUE(server_hello);
  EXPECT_NE(server_hello->cipher_suite, 0);
  EXPECT_FALSE(rig.client->fin) << "server waits for the key exchange";
}

TEST(TlsServer, ClientHelloSplitAcrossSegmentsIsReassembled) {
  TlsConfig config;
  config.chain_bytes = 2000;
  TlsRig rig(config);
  const auto stream = rig.run_split(/*with_sni=*/true);
  const auto records = parse_stream(stream);
  ASSERT_FALSE(records.empty()) << "server must wait for the full record";
  EXPECT_EQ(records[0].type, ContentType::Handshake);
  net::Bytes payload;
  for (const auto& record : records) {
    payload.insert(payload.end(), record.payload.begin(), record.payload.end());
  }
  const auto messages = collect_handshakes(payload);
  ASSERT_TRUE(messages);
  EXPECT_EQ(messages->front().type, HandshakeType::ServerHello);
}

TEST(TlsServer, EverySplitOfTheClientHelloYieldsTheSameFlight) {
  // The hello run_split sends, whole: one segment, framed in place.
  TlsConfig config;
  config.chain_bytes = 2000;
  const std::size_t wire_bytes =
      encode_client_hello_record(
          hello_fields(probe_cipher_list(), "www.example.net", false), kTls10)
          .size();
  TlsRig whole_rig(config);
  const net::Bytes whole = whole_rig.run_split(true, wire_bytes);
  ASSERT_FALSE(whole.empty());
  for (std::size_t cut = 1; cut < wire_bytes; ++cut) {
    TlsRig rig(config);
    ASSERT_EQ(rig.run_split(true, cut), whole) << "cut at " << cut;
  }
}

TEST(TlsServer, OcspStaplingAddsCertificateStatus) {
  TlsConfig config;
  config.chain_bytes = 1000;
  config.ocsp_staple = true;
  TlsRig rig(config);
  const auto stream = rig.run(true);
  net::Bytes payload;
  for (const auto& record : parse_stream(stream)) {
    payload.insert(payload.end(), record.payload.begin(), record.payload.end());
  }
  const auto messages = collect_handshakes(payload);
  ASSERT_TRUE(messages);
  bool has_status = false;
  for (const auto& message : *messages) {
    has_status |= message.type == HandshakeType::CertificateStatus;
  }
  EXPECT_TRUE(has_status);
}

// The first flight as it was composed before it was written in one pass:
// a chain of certificates grown byte by byte, each handshake message
// encoded on its own, concatenated, then record-fragmented. Kept here only
// as the oracle the server's byte stream must equal.
net::Bytes reference_certificate(std::size_t size, std::string_view subject,
                                 std::uint64_t seed) {
  size = std::max<std::size_t>(size, 8);
  net::Bytes cert;
  cert.reserve(size);
  const std::size_t content_len = size - 4;
  cert.push_back(0x30);
  cert.push_back(0x82);
  cert.push_back(static_cast<std::uint8_t>(content_len >> 8));
  cert.push_back(static_cast<std::uint8_t>(content_len));
  const std::size_t tag_len = std::min(subject.size(), size - cert.size());
  cert.insert(cert.end(), subject.begin(), subject.begin() + tag_len);
  util::Rng rng(util::mix64(seed, size));
  while (cert.size() < size) cert.push_back(static_cast<std::uint8_t>(rng() & 0xff));
  return cert;
}

std::vector<net::Bytes> reference_certificates(std::size_t total,
                                               std::string_view subject,
                                               std::uint64_t seed) {
  total = std::max<std::size_t>(total, 8);
  if (total < 1200) return {reference_certificate(total, subject, seed)};
  const int intermediates = total >= 4200 ? 2 : 1;
  const std::size_t leaf = total * 55 / 100;
  std::size_t remaining = total - leaf;
  std::vector<net::Bytes> certs{reference_certificate(leaf, subject, seed)};
  for (int i = 0; i < intermediates; ++i) {
    const std::size_t piece = i + 1 == intermediates ? remaining : remaining / 2;
    certs.push_back(
        reference_certificate(piece, "intermediate-ca", util::mix64(seed, 1000 + i)));
    remaining -= piece;
  }
  return certs;
}

net::Bytes composed_first_flight(const TlsConfig& config, net::IPv4Address client,
                                 CipherSuite chosen, bool staple) {
  ServerHello server_hello;
  util::Rng rng(util::mix64(config.seed, client.value()));
  for (auto& byte : server_hello.random) byte = static_cast<std::uint8_t>(rng());
  server_hello.cipher_suite = chosen;
  server_hello.ocsp_stapling = staple;
  server_hello.extra_extension_bytes = 140;
  server_hello.session_id.assign(32, 0x42);

  net::Bytes flight;
  const auto append = [&flight](const net::Bytes& message) {
    flight.insert(flight.end(), message.begin(), message.end());
  };
  append(encode_handshake(HandshakeType::ServerHello, server_hello.encode()));
  append(encode_handshake(
      HandshakeType::Certificate,
      make_chain(config.chain_bytes, config.server_name, config.seed).encode()));
  if (staple) {
    net::Bytes status;
    net::WireWriter writer(status);
    writer.u8(1);
    writer.u24(1600);
    util::Rng ocsp_rng(util::mix64(config.seed, 0x0c5b));
    for (int i = 0; i < 1600; ++i) status.push_back(static_cast<std::uint8_t>(ocsp_rng()));
    append(encode_handshake(HandshakeType::CertificateStatus, status));
  }
  append(encode_handshake(HandshakeType::ServerHelloDone, {}));

  net::Bytes wire;
  encode_fragmented(ContentType::Handshake, kTls12, flight, wire);
  return wire;
}

TEST(TlsServer, FirstFlightMatchesComposedEncoders) {
  // Chain sizes around every layout step (one, two and three
  // certificates) and every record boundary: one, two and four records.
  const std::size_t chains[] = {8,    36,     1199,   1200,       2186,
                                4199, 4200,   16'380, 16'384 + 1, 65'000};
  struct Variant {
    bool staple;
    bool with_sni;
    bool sni_iw;
  };
  const Variant variants[] = {{false, false, false}, {true, false, false},
                              {false, true, false},  {true, true, false},
                              {false, true, true},   {true, true, true}};
  for (const std::size_t chain_bytes : chains) {
    ASSERT_EQ(make_chain(chain_bytes, "www.example.net", 77).certificates,
              reference_certificates(chain_bytes, "www.example.net", 77))
        << chain_bytes;
    for (const Variant& variant : variants) {
      TlsConfig config;
      config.chain_bytes = chain_bytes;
      config.ocsp_staple = variant.staple;
      config.server_name = "www.example.net";
      config.seed = 77;
      if (variant.sni_iw) config.sni_iw = tcp::IwConfig::segments_of(2);
      TlsRig rig(config);
      const auto stream = rig.run(variant.with_sni);
      const CipherSuite chosen = negotiate(probe_cipher_list(), config.supported_ciphers);
      const auto expected =
          composed_first_flight(config, rig.client_ip, chosen, variant.staple);
      EXPECT_EQ(stream.size(), expected.size()) << chain_bytes;
      EXPECT_TRUE(stream == expected)
          << "chain " << chain_bytes << " staple " << variant.staple << " sni "
          << variant.with_sni << " sni_iw " << variant.sni_iw;
      EXPECT_EQ(encode_first_flight(config, rig.client_ip, chosen, variant.staple),
                expected);
    }
  }
}

TEST(TlsServer, SniAlertPolicy) {
  TlsConfig config;
  config.sni_policy = SniPolicy::AlertAndClose;
  TlsRig rig(config);
  const auto stream = rig.run(/*with_sni=*/false);
  const auto records = parse_stream(stream);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, ContentType::Alert);
  const auto alert = fatal_alert_record(AlertDescription::UnrecognizedName);
  EXPECT_EQ(stream, net::Bytes(alert.begin(), alert.end()));
  EXPECT_TRUE(rig.client->fin);
}

TEST(TlsServer, SniAlertPolicyStillServesNamedClients) {
  TlsConfig config;
  config.sni_policy = SniPolicy::AlertAndClose;
  config.chain_bytes = 1500;
  TlsRig rig(config);
  const auto stream = rig.run(/*with_sni=*/true);
  const auto records = parse_stream(stream);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].type, ContentType::Handshake);
}

TEST(TlsServer, UnreadableHelloRecordsAreRefused) {
  // What frames as a record but does not read as a ClientHello — another
  // record type, a record whose later handshake message runs short, another
  // first message, a ClientHello body that does not decode — is answered
  // with a fatal internal_error alert and a FIN.
  const auto record = [](ContentType type, const net::Bytes& payload) {
    net::Bytes wire;
    encode_fragmented(type, kTls10, payload, wire);
    return wire;
  };
  const net::Bytes hello = encode_client_hello_record(
      hello_fields(probe_cipher_list(), "www.example.net", true), kTls10);
  net::Bytes hello_then_truncated(hello.begin() + kRecordHeaderBytes, hello.end());
  const auto second = encode_handshake(HandshakeType::Certificate, net::Bytes(10, 2));
  hello_then_truncated.insert(hello_then_truncated.end(), second.begin(), second.end() - 1);
  const net::Bytes refused[] = {
      record(ContentType::ApplicationData, {1, 2, 3}),
      record(ContentType::Handshake, hello_then_truncated),
      record(ContentType::Handshake, {}),
      record(ContentType::Handshake,
             encode_handshake(HandshakeType::ServerHello, net::Bytes(40, 0))),
      record(ContentType::Handshake,
             encode_handshake(HandshakeType::ClientHello, net::Bytes(20, 0))),
  };
  const auto alert = fatal_alert_record(AlertDescription::InternalError);
  for (const net::Bytes& wire : refused) {
    TlsRig rig(TlsConfig{});
    EXPECT_EQ(rig.send(wire), net::Bytes(alert.begin(), alert.end()));
    EXPECT_TRUE(rig.client->fin);
  }
  // The whole hello still gets its flight; a record header the framer
  // rejects (content type 99) is reset with no answer at all.
  TlsRig served(TlsConfig{});
  const auto flight = parse_stream(served.send(hello));
  ASSERT_FALSE(flight.empty());
  EXPECT_EQ(flight.front().type, ContentType::Handshake);
  net::Bytes malformed = hello;
  malformed[0] = 99;
  TlsRig reset(TlsConfig{});
  EXPECT_TRUE(reset.send(malformed).empty());
  EXPECT_FALSE(reset.client->fin);
}

TEST(TlsServer, SilentClosePolicy) {
  TlsConfig config;
  config.sni_policy = SniPolicy::SilentClose;
  TlsRig rig(config);
  const auto stream = rig.run(false);
  EXPECT_TRUE(stream.empty());
  EXPECT_TRUE(rig.client->fin);
}

TEST(TlsServer, NoCommonCipherYieldsHandshakeFailure) {
  TlsConfig config;
  TlsRig rig(config);
  const auto stream = rig.run(true, /*exotic_client=*/true);
  const auto records = parse_stream(stream);
  ASSERT_EQ(records.size(), 1u);
  const auto alert = fatal_alert_record(AlertDescription::HandshakeFailure);
  EXPECT_EQ(stream, net::Bytes(alert.begin(), alert.end()));
}

}  // namespace
}  // namespace iwscan::tls
