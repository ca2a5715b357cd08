// TLS 1.2 handshake messages (RFC 5246 §7.4): ClientHello, ServerHello,
// Certificate, ServerHelloDone, CertificateStatus — the complete first
// flight the IW scan rides on (§3.3 of the paper).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
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

/// Iterate handshake messages inside concatenated handshake payload bytes.
/// Each body is borrowed: a view into the payload it was split from, valid
/// while that payload is.
struct HandshakeMessage {
  HandshakeType type;
  std::span<const std::uint8_t> body;
};
[[nodiscard]] std::optional<std::vector<HandshakeMessage>> split_handshakes(
    std::span<const std::uint8_t> payload);

/// A ClientHello's fields, borrowed: what both ClientHello::encode and
/// encode_client_hello_record write from.
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

struct ClientHello {
  std::uint16_t version = kTls12;
  std::array<std::uint8_t, 32> random{};
  net::Bytes session_id;
  std::vector<CipherSuite> cipher_suites;
  std::vector<std::uint8_t> compression_methods{0};
  std::optional<std::string> server_name;  // SNI
  bool ocsp_stapling = false;              // status_request extension

  [[nodiscard]] ClientHelloFields fields() const noexcept;
  /// Body bytes (without the handshake frame).
  [[nodiscard]] net::Bytes encode() const;
  [[nodiscard]] static std::optional<ClientHello> decode(
      std::span<const std::uint8_t> body);
};

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
