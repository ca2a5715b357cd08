// Structured fuzz driver for the TLS wire codecs (tls/records, tls/handshake).
//
// Exercises the full hostile-responder path the scanner depends on:
// in-place record framing (whole, and split at every point as segments
// split it), handshake splitting, and the ClientHello / ServerHello /
// Certificate decoders — with encode→decode round-trip checks on everything
// that parses.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>

#include "fuzz_harness.hpp"
#include "tls/handshake.hpp"
#include "tls/records.hpp"

namespace {

using iwscan::fuzz::Input;

void require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "tls property violated: %s\n", what);
    std::abort();
  }
}

void check_handshake_payload(std::span<const std::uint8_t> payload) {
  namespace tls = iwscan::tls;
  const auto messages = tls::split_handshakes(payload);
  if (!messages) return;
  for (const auto& message : *messages) {
    require(std::less_equal<>{}(payload.data(), message.body.data()) &&
                std::less_equal<>{}(message.body.data() + message.body.size(),
                                    payload.data() + payload.size()),
            "handshake body is not a view into the split payload");
    switch (message.type) {
      case tls::HandshakeType::ClientHello: {
        const auto hello = tls::ClientHello::decode(message.body);
        if (!hello) break;
        // Re-encoding drops unknown extensions, so assert semantic (not
        // byte) round-trip on the fields the scanner reads.
        const auto again = tls::ClientHello::decode(hello->encode());
        require(again.has_value(), "re-decode of re-encoded ClientHello failed");
        require(again->version == hello->version &&
                    again->random == hello->random &&
                    again->session_id == hello->session_id &&
                    again->cipher_suites == hello->cipher_suites &&
                    again->server_name == hello->server_name,
                "ClientHello round trip changed scanner-visible fields");
        break;
      }
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
  }
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
  (void)tls::ClientHello::decode(data);
  (void)tls::ServerHello::decode(data);
  (void)tls::CertificateChain::decode(data);
}

std::vector<Input> fuzz_corpus() {
  namespace tls = iwscan::tls;
  namespace net = iwscan::net;
  std::vector<Input> corpus;

  // A plausible ClientHello record.
  tls::ClientHello client;
  client.random.fill(0x42);
  client.cipher_suites = {0xc02f, 0xc030, 0x009e};
  client.server_name = "scan-target.example";
  client.ocsp_stapling = true;
  {
    net::Bytes wire;
    tls::encode_fragmented(
        tls::ContentType::Handshake, tls::kTls10,
        tls::encode_handshake(tls::HandshakeType::ClientHello, client.encode()), wire);
    corpus.push_back(wire);
  }

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
