// TLS 1.2 handshake messages (RFC 5246 §7.4): ClientHello, ServerHello,
// Certificate, ServerHelloDone, CertificateStatus — the complete first
// flight the IW scan rides on (§3.3 of the paper).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string_view>
#include <vector>

#include "netbase/wire.hpp"
#include "tls/ciphers.hpp"
#include "tls/records.hpp"

namespace iwscan::tls {

enum class HandshakeType : std::uint8_t {
  ClientHello = 1,
  ServerHello = 2,
  Certificate = 11,
  ServerHelloDone = 14,
  CertificateStatus = 22,
};

inline constexpr std::size_t kHandshakeHeaderBytes = 4;  // type + 24-bit length

// Extension types (RFC 6066, RFC 8422, RFC 5246, RFC 7685).
inline constexpr std::uint16_t kExtServerName = 0;
inline constexpr std::uint16_t kExtStatusRequest = 5;
inline constexpr std::uint16_t kExtSupportedGroups = 10;
inline constexpr std::uint16_t kExtEcPointFormats = 11;
inline constexpr std::uint16_t kExtSignatureAlgorithms = 13;
inline constexpr std::uint16_t kExtPadding = 0x0015;

/// Frame a handshake message (type + 24-bit length + body).
[[nodiscard]] net::Bytes encode_handshake(HandshakeType type,
                                          std::span<const std::uint8_t> body);

/// One handshake message of a handshake payload. The body is borrowed: a
/// view into the payload it was walked from, valid while that payload is.
struct HandshakeMessage {
  HandshakeType type;
  std::span<const std::uint8_t> body;
};

/// Walks concatenated handshake messages where they lie, calling
/// visit(HandshakeMessage) for each in order. Returns false when a message
/// header or body runs past the payload — after visiting the messages
/// before it, so a caller acts on what it saw only once the walk returns
/// true.
template <class Visit>
[[nodiscard]] bool walk_handshakes(std::span<const std::uint8_t> payload, Visit&& visit) {
  net::WireReader reader(payload);
  while (reader.remaining() > 0) {
    if (reader.remaining() < kHandshakeHeaderBytes) return false;
    const auto type = static_cast<HandshakeType>(reader.u8());
    const std::uint32_t length = reader.u24();
    if (length > reader.remaining()) return false;
    visit(HandshakeMessage{type, reader.raw(length)});
  }
  return true;
}

struct ClientHelloFields {
  std::uint16_t version = kTls12;
  std::span<const std::uint8_t> random;  // 32 bytes
  std::span<const std::uint8_t> session_id;
  std::span<const CipherSuite> cipher_suites;
  std::span<const std::uint8_t> compression_methods;
  std::optional<std::string_view> server_name;  // SNI
  bool ocsp_stapling = false;                    // status_request extension
};

/// A ClientHello as the handshake record(s) a client sends — record
/// header, handshake header, body — written in one pass into a buffer of
/// its exact size. The bytes are those of encode_fragmented(Handshake,
/// record_version, encode_handshake(ClientHello, body)).
[[nodiscard]] net::Bytes encode_client_hello_record(const ClientHelloFields& hello,
                                                    std::uint16_t record_version);

/// The cipher suites a ClientHello offers, read where they lie on the wire
/// (big-endian pairs, in the client's order) and copied nowhere.
class OfferedSuites {
 public:
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = CipherSuite;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    explicit Iterator(const std::uint8_t* at) noexcept : at_(at) {}
    CipherSuite operator*() const noexcept {
      return static_cast<CipherSuite>((at_[0] << 8) | at_[1]);
    }
    Iterator& operator++() noexcept {
      at_ += 2;
      return *this;
    }
    Iterator operator++(int) noexcept {
      const Iterator was = *this;
      ++*this;
      return was;
    }
    bool operator==(const Iterator&) const noexcept = default;

   private:
    const std::uint8_t* at_ = nullptr;
  };

  OfferedSuites() = default;
  /// `wire` holds an even number of bytes.
  explicit OfferedSuites(std::span<const std::uint8_t> wire) noexcept : wire_(wire) {}

  [[nodiscard]] Iterator begin() const noexcept { return Iterator(wire_.data()); }
  [[nodiscard]] Iterator end() const noexcept {
    return Iterator(wire_.data() + wire_.size());
  }
  [[nodiscard]] std::size_t size() const noexcept { return wire_.size() / 2; }
  [[nodiscard]] std::span<const std::uint8_t> wire() const noexcept { return wire_; }

 private:
  std::span<const std::uint8_t> wire_;
};

/// What a TLS daemon reads of a ClientHello, as views into the body it was
/// decoded from.
struct ClientHelloView {
  std::optional<std::string_view> server_name;  // the last well-formed SNI
  OfferedSuites cipher_suites;
  bool ocsp_stapling = false;  // a status_request extension is present
};

/// Decodes a ClientHello body (without the handshake frame). Rejects a body
/// whose fixed fields, suite list (an even byte count) or extension block
/// run short; unknown extensions and trailing bytes are skipped.
[[nodiscard]] std::optional<ClientHelloView> decode_client_hello(
    std::span<const std::uint8_t> body);

struct ServerHello {
  std::uint16_t version = kTls12;
  std::array<std::uint8_t, 32> random{};
  net::Bytes session_id;
  CipherSuite cipher_suite = 0;
  std::uint8_t compression_method = 0;
  bool ocsp_stapling = false;  // echoes status_request when stapling
  // Extra extension payload (renegotiation_info, ALPN, tickets… lumped as a
  // padding extension): real server hellos carry 100–250 B beyond the
  // minimum, which matters for how much first-flight data fills the IW.
  std::uint16_t extra_extension_bytes = 0;

  [[nodiscard]] net::Bytes encode() const;
  [[nodiscard]] static std::optional<ServerHello> decode(
      std::span<const std::uint8_t> body);
};

struct CertificateChain {
  std::vector<net::Bytes> certificates;  // DER blobs, leaf first

  /// Sum of certificate byte lengths (the quantity plotted in Fig. 2).
  [[nodiscard]] std::size_t total_certificate_bytes() const noexcept;

  [[nodiscard]] net::Bytes encode() const;
  [[nodiscard]] static std::optional<CertificateChain> decode(
      std::span<const std::uint8_t> body);
};

}  // namespace iwscan::tls
