// Structured fuzz driver for the TLS wire codecs (tls/records, tls/handshake).
//
// Exercises the full hostile-responder path the scanner depends on:
// incremental record deframing (in adversarial chunk sizes), handshake
// splitting, and the ClientHello / ServerHello / Certificate decoders —
// with encode→decode round-trip checks on everything that parses.
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

void fuzz_one(std::span<const std::uint8_t> data) {
  namespace tls = iwscan::tls;

  // Deframe the input as a TCP byte stream delivered in hostile chunk
  // sizes (1, then 7, then 64, cycling — all derived deterministically).
  static constexpr std::size_t kChunks[] = {1, 7, 64};
  tls::RecordReader reader;
  std::size_t pos = 0;
  std::size_t chunk_index = 0;
  while (pos < data.size()) {
    const std::size_t n = std::min(kChunks[chunk_index % 3], data.size() - pos);
    reader.feed(data.subspan(pos, n));
    ++chunk_index;
    pos += n;
    while (const auto record = reader.next()) {
      require(record->payload.size() <= tls::kMaxRecordPayload + 256,
              "RecordReader surfaced an oversized record");
      // Byte-exact record round trip. The reader tolerates slightly
      // oversized records (kMax + 256); the encoder, by design, does not.
      if (record->payload.size() <= tls::kMaxRecordPayload) {
        iwscan::net::Bytes wire;
        tls::encode_record(*record, wire);
        tls::RecordReader verify;
        verify.feed(wire);
        const auto again = verify.next();
        require(again && again->type == record->type &&
                    again->version == record->version &&
                    again->payload == record->payload,
                "record encode/decode round trip mismatch");
      }

      if (record->type == tls::ContentType::Handshake) {
        check_handshake_payload(record->payload);
      } else if (record->type == tls::ContentType::Alert) {
        (void)tls::decode_alert(record->payload);
      }
    }
    if (reader.malformed()) break;
  }

  // Also aim the inner decoders directly at the raw input: a responder can
  // put anything inside a well-formed record.
  check_handshake_payload(data);
  (void)tls::ClientHello::decode(data);
  (void)tls::ServerHello::decode(data);
  (void)tls::CertificateChain::decode(data);
  (void)tls::decode_alert(data);
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
    tls::Record record;
    record.type = tls::ContentType::Alert;
    record.payload = tls::encode_alert(tls::AlertLevel::Fatal,
                                       tls::AlertDescription::HandshakeFailure);
    net::Bytes wire;
    tls::encode_record(record, wire);
    corpus.push_back(wire);
  }

  // Truncated record header (3 of 5 bytes) — must stay pending, not parse.
  corpus.push_back(Input{22, 3, 1});
  return corpus;
}

}  // namespace

IWSCAN_FUZZ_DRIVER(fuzz_one, fuzz_corpus)
