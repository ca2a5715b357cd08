// Structured fuzz driver for the TLS wire codecs (tls/records, tls/handshake).
//
// Exercises the full hostile-responder path the scanner depends on:
// in-place record framing (whole, and split at every point as segments
// split it), the in-place handshake walk, the TLS daemon's borrowed
// ClientHello decode (every view inside its input), and the ServerHello /
// Certificate decoders — with encode→decode round-trip checks on everything
// that parses, and a ClientHello built from each input's bytes put through
// the probe's encoder, the record framer, the walk and the decode.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "fuzz_harness.hpp"
#include "tls/handshake.hpp"
#include "tls/records.hpp"
#include "util/bytes.hpp"

namespace {

using iwscan::fuzz::Input;

void require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "tls property violated: %s\n", what);
    std::abort();
  }
}

/// True iff `view` lies inside `bytes` (an empty view lies anywhere).
bool lies_inside(std::span<const std::uint8_t> view, std::span<const std::uint8_t> bytes) {
  return view.empty() ||
         (std::less_equal<>{}(bytes.data(), view.data()) &&
          std::less_equal<>{}(view.data() + view.size(), bytes.data() + bytes.size()));
}

void check_client_hello(std::span<const std::uint8_t> body) {
  const auto hello = iwscan::tls::decode_client_hello(body);
  if (!hello) return;
  require(lies_inside(hello->cipher_suites.wire(), body) &&
              hello->cipher_suites.wire().size() % 2 == 0,
          "offered suites are not an even-length view into the body");
  require(!hello->server_name || lies_inside(iwscan::util::as_bytes(*hello->server_name), body),
          "SNI is not a view into the body");
}

void check_handshake_payload(std::span<const std::uint8_t> payload) {
  namespace tls = iwscan::tls;
  // A walk that ends in a truncated message has still visited (and so
  // checked) the messages before it.
  (void)tls::walk_handshakes(payload, [payload](tls::HandshakeMessage message) {
    require(lies_inside(message.body, payload),
            "handshake body is not a view into the walked payload");
    switch (message.type) {
      case tls::HandshakeType::ClientHello:
        check_client_hello(message.body);
        break;
      case tls::HandshakeType::ServerHello: {
        const auto hello = tls::ServerHello::decode(message.body);
        if (!hello) break;
        const auto again = tls::ServerHello::decode(hello->encode());
        require(again.has_value(), "re-decode of re-encoded ServerHello failed");
        require(again->version == hello->version &&
                    again->cipher_suite == hello->cipher_suite &&
                    again->ocsp_stapling == hello->ocsp_stapling,
                "ServerHello round trip changed scanner-visible fields");
        break;
      }
      case tls::HandshakeType::Certificate: {
        const auto chain = tls::CertificateChain::decode(message.body);
        if (!chain) break;
        (void)chain->total_certificate_bytes();
        const auto again = tls::CertificateChain::decode(chain->encode());
        require(again.has_value() && again->certificates == chain->certificates,
                "CertificateChain round trip changed the chain");
        break;
      }
      case tls::HandshakeType::ServerHelloDone:
      case tls::HandshakeType::CertificateStatus:
        // Framing-only / not independently round-tripped here; raw type
        // bytes outside the enum fall out of the switch without matching.
        break;
    }
  });
}

/// A ClientHello whose session id, suites and SNI are drawn from the input
/// (seeded by its bytes), written by the probe's encoder, framed, walked
/// and decoded: the daemon must read back the SNI, suites and OCSP flag.
void check_client_hello_round_trip(std::span<const std::uint8_t> data) {
  namespace tls = iwscan::tls;
  std::uint64_t seed = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : data) seed = (seed ^ byte) * 0x100000001b3ULL;
  iwscan::fuzz::Rng rng(seed);

  std::array<std::uint8_t, 32> random{};
  for (auto& byte : random) byte = static_cast<std::uint8_t>(rng.next());
  std::vector<tls::CipherSuite> suites(rng.below(80));
  for (auto& suite : suites) suite = static_cast<tls::CipherSuite>(rng.next());
  const std::vector<std::uint8_t> compression(1 + rng.below(3), 0);
  const auto session_id = data.first(std::min<std::size_t>(rng.below(33), data.size()));
  const auto name = iwscan::util::as_text(
      data.last(std::min<std::size_t>(rng.below(256), data.size())));

  tls::ClientHelloFields fields;
  fields.random = random;
  fields.session_id = session_id;
  fields.cipher_suites = suites;
  fields.compression_methods = compression;
  if (rng.below(4) != 0) fields.server_name = name;
  fields.ocsp_stapling = rng.below(2) != 0;

  const iwscan::net::Bytes wire = tls::encode_client_hello_record(fields, tls::kTls10);
  const tls::RecordFrame record = tls::frame_record(wire);
  require(record.status == tls::RecordFrame::Status::Complete &&
              record.size() == wire.size(),
          "the probe's ClientHello record does not frame whole");
  std::optional<tls::HandshakeMessage> first;
  std::size_t messages = 0;
  const bool framed =
      tls::walk_handshakes(record.payload, [&](tls::HandshakeMessage message) {
        if (messages++ == 0) first = message;
      });
  require(framed && messages == 1 && first->type == tls::HandshakeType::ClientHello,
          "the probe's ClientHello record does not walk as one ClientHello");
  const auto hello = tls::decode_client_hello(first->body);
  require(hello.has_value(), "the probe's ClientHello does not decode");
  require(hello->server_name == fields.server_name &&
              std::ranges::equal(hello->cipher_suites, fields.cipher_suites) &&
              hello->ocsp_stapling == fields.ocsp_stapling,
          "ClientHello round trip changed the SNI, the suites or the OCSP flag");
}

bool same_frame(const iwscan::tls::RecordFrame& a, const iwscan::tls::RecordFrame& b) {
  return a.status == b.status && a.type == b.type && a.version == b.version &&
         std::equal(a.payload.begin(), a.payload.end(), b.payload.begin(),
                    b.payload.end());
}

void fuzz_one(std::span<const std::uint8_t> data) {
  namespace tls = iwscan::tls;
  using Status = tls::RecordFrame::Status;

  // The first record, framed from the whole input. Cut in two anywhere (a
  // daemon gathers the parts and frames again), the first part frames
  // nothing yet or the same record.
  const tls::RecordFrame first = tls::frame_record(data);
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    const tls::RecordFrame head = tls::frame_record(data.first(cut));
    require(head.status == Status::NeedMore || same_frame(head, first),
            "a split of the input frames a different record");
  }
  // Invalid latches: a malformed header stays malformed whatever follows.
  if (first.status == Status::Malformed) {
    iwscan::net::Bytes longer(data.begin(), data.end());
    longer.resize(longer.size() + 64, 0x16);
    require(tls::frame_record(longer).status == Status::Malformed,
            "Malformed framing did not latch");
  }

  // Walk the stream record by record, framed in place.
  std::span<const std::uint8_t> rest = data;
  for (tls::RecordFrame record = first; record.status == Status::Complete;
       record = tls::frame_record(rest)) {
    require(record.payload.size() <= tls::kMaxRecordPayload + 256,
            "framed an oversized record");
    require(record.payload.data() == rest.data() + tls::kRecordHeaderBytes,
            "record payload is not a view into the framed bytes");
    // Byte-exact record round trip. The framer tolerates slightly
    // oversized records (kMax + 256); the encoder, by design, does not.
    if (record.payload.size() <= tls::kMaxRecordPayload) {
      iwscan::net::Bytes wire;
      tls::encode_fragmented(record.type, record.version, record.payload, wire);
      require(same_frame(tls::frame_record(wire), record) &&
                  wire.size() == record.size(),
              "record encode/frame round trip mismatch");
    }
    if (record.type == tls::ContentType::Handshake) {
      check_handshake_payload(record.payload);
    }
    rest = rest.subspan(record.size());
  }

  // Also aim the inner decoders directly at the raw input: a responder can
  // put anything inside a well-formed record.
  check_handshake_payload(data);
  check_client_hello(data);
  (void)tls::ServerHello::decode(data);
  (void)tls::CertificateChain::decode(data);

  check_client_hello_round_trip(data);
}

std::vector<Input> fuzz_corpus() {
  namespace tls = iwscan::tls;
  namespace net = iwscan::net;
  std::vector<Input> corpus;

  // The probe's ClientHello record: the 40-suite list, SNI and OCSP.
  static constexpr std::uint8_t kNullCompression[] = {0};
  const std::array<std::uint8_t, 32> random{};
  tls::ClientHelloFields client;
  client.random = random;
  client.cipher_suites = tls::probe_cipher_list();
  client.compression_methods = kNullCompression;
  client.server_name = "scan-target.example";
  client.ocsp_stapling = true;
  corpus.push_back(tls::encode_client_hello_record(client, tls::kTls10));

  // A first flight: ServerHello + Certificate + ServerHelloDone.
  tls::ServerHello server;
  server.random.fill(0x24);
  server.cipher_suite = 0xc02f;
  server.extra_extension_bytes = 120;
  tls::CertificateChain chain;
  chain.certificates.push_back(net::Bytes(800, 0xd5));
  chain.certificates.push_back(net::Bytes(1100, 0xca));
  {
    net::Bytes flight;
    const auto append = [&flight](const net::Bytes& bytes) {
      flight.insert(flight.end(), bytes.begin(), bytes.end());
    };
    append(tls::encode_handshake(tls::HandshakeType::ServerHello, server.encode()));
    append(tls::encode_handshake(tls::HandshakeType::Certificate, chain.encode()));
    append(tls::encode_handshake(tls::HandshakeType::ServerHelloDone, {}));
    net::Bytes wire;
    tls::encode_fragmented(tls::ContentType::Handshake, tls::kTls12, flight, wire);
    corpus.push_back(wire);
  }

  // A fatal alert record.
  {
    const auto alert = tls::fatal_alert_record(tls::AlertDescription::HandshakeFailure);
    corpus.emplace_back(alert.begin(), alert.end());
  }

  // Truncated record header (3 of 5 bytes) — must stay pending, not parse.
  corpus.push_back(Input{22, 3, 1});
  return corpus;
}

}  // namespace

IWSCAN_FUZZ_DRIVER(fuzz_one, fuzz_corpus)
