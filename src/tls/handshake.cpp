#include "tls/handshake.hpp"

#include "util/bytes.hpp"

namespace iwscan::tls {
namespace {

// What every ClientHello offers: x25519, secp256r1, secp384r1; uncompressed
// points; a typical browser set of signature algorithms.
constexpr std::uint16_t kSupportedGroups[] = {0x001d, 0x0017, 0x0018};
constexpr std::uint8_t kEcPointFormats[] = {0x00};
constexpr std::uint16_t kSignatureAlgorithms[] = {0x0403, 0x0503, 0x0603, 0x0401,
                                                  0x0501, 0x0601, 0x0201};
constexpr std::size_t kExtensionHeaderBytes = 4;  // type + length
constexpr std::size_t kServerNameFixedBytes = 5;  // list length, name type, name length
constexpr std::size_t kStatusRequestBytes = 5;    // status type + two empty lists

void write_extension(net::WireWriter& writer, std::uint16_t type,
                     std::span<const std::uint8_t> data) {
  writer.u16(type);
  writer.u16(static_cast<std::uint16_t>(data.size()));
  writer.raw(data);
}

std::size_t client_hello_extensions_size(const ClientHelloFields& hello) noexcept {
  std::size_t size = kExtensionHeaderBytes + 2 + sizeof(kSupportedGroups) +
                     kExtensionHeaderBytes + 1 + sizeof(kEcPointFormats) +
                     kExtensionHeaderBytes + 2 + sizeof(kSignatureAlgorithms);
  if (hello.server_name) {
    size += kExtensionHeaderBytes + kServerNameFixedBytes + hello.server_name->size();
  }
  if (hello.ocsp_stapling) size += kExtensionHeaderBytes + kStatusRequestBytes;
  return size;
}

std::size_t client_hello_body_size(const ClientHelloFields& hello) noexcept {
  return 2 + hello.random.size() + 1 + hello.session_id.size() + 2 +
         2 * hello.cipher_suites.size() + 1 + hello.compression_methods.size() + 2 +
         client_hello_extensions_size(hello);
}

/// The ClientHello body layout, written in place into records.
void write_client_hello_body(const ClientHelloFields& hello, FragmentWriter& out) {
  out.u16(hello.version);
  out.raw(hello.random);
  out.u8(static_cast<std::uint8_t>(hello.session_id.size()));
  out.raw(hello.session_id);
  out.u16(static_cast<std::uint16_t>(hello.cipher_suites.size() * 2));
  for (const CipherSuite suite : hello.cipher_suites) out.u16(suite);
  out.u8(static_cast<std::uint8_t>(hello.compression_methods.size()));
  out.raw(hello.compression_methods);

  out.u16(static_cast<std::uint16_t>(client_hello_extensions_size(hello)));
  if (hello.server_name) {
    const std::string_view name = *hello.server_name;
    out.u16(kExtServerName);
    out.u16(static_cast<std::uint16_t>(name.size() + kServerNameFixedBytes));
    out.u16(static_cast<std::uint16_t>(name.size() + 3));  // server_name_list
    out.u8(0);                                              // host_name
    out.u16(static_cast<std::uint16_t>(name.size()));
    out.raw(util::as_bytes(name));
  }
  if (hello.ocsp_stapling) {
    out.u16(kExtStatusRequest);
    out.u16(static_cast<std::uint16_t>(kStatusRequestBytes));
    out.u8(1);   // status_type = ocsp
    out.u16(0);  // responder_id_list
    out.u16(0);  // request_extensions
  }
  out.u16(kExtSupportedGroups);
  out.u16(static_cast<std::uint16_t>(2 + sizeof(kSupportedGroups)));
  out.u16(static_cast<std::uint16_t>(sizeof(kSupportedGroups)));
  for (const std::uint16_t group : kSupportedGroups) out.u16(group);
  out.u16(kExtEcPointFormats);
  out.u16(static_cast<std::uint16_t>(1 + sizeof(kEcPointFormats)));
  out.u8(static_cast<std::uint8_t>(sizeof(kEcPointFormats)));
  out.raw(kEcPointFormats);
  out.u16(kExtSignatureAlgorithms);
  out.u16(static_cast<std::uint16_t>(2 + sizeof(kSignatureAlgorithms)));
  out.u16(static_cast<std::uint16_t>(sizeof(kSignatureAlgorithms)));
  for (const std::uint16_t algorithm : kSignatureAlgorithms) out.u16(algorithm);
}

}  // namespace

// iwlint: allow(unreached) -- composed reference for the in-place TLS first flight
net::Bytes encode_handshake(HandshakeType type, std::span<const std::uint8_t> body) {
  net::Bytes out;
  out.reserve(4 + body.size());
  net::WireWriter writer(out);
  writer.u8(static_cast<std::uint8_t>(type));
  writer.u24(static_cast<std::uint32_t>(body.size()));
  writer.raw(body);
  return out;
}

net::Bytes encode_client_hello_record(const ClientHelloFields& hello,
                                      std::uint16_t record_version) {
  const std::size_t body = client_hello_body_size(hello);
  net::Bytes wire;
  FragmentWriter out(ContentType::Handshake, record_version, kHandshakeHeaderBytes + body,
                     wire);
  out.u8(static_cast<std::uint8_t>(HandshakeType::ClientHello));
  out.u24(static_cast<std::uint32_t>(body));
  write_client_hello_body(hello, out);
  return wire;
}

std::optional<ClientHelloView> decode_client_hello(std::span<const std::uint8_t> body) {
  net::WireReader reader(body);
  reader.skip(2 + 32);       // version, random
  reader.skip(reader.u8());  // session id
  const std::uint16_t suite_bytes = reader.u16();
  if (suite_bytes % 2 != 0) return std::nullopt;
  ClientHelloView hello;
  hello.cipher_suites = OfferedSuites(reader.raw(suite_bytes));
  reader.skip(reader.u8());  // compression methods
  if (!reader.ok()) return std::nullopt;

  if (reader.remaining() >= 2) {
    const std::uint16_t ext_total = reader.u16();
    if (ext_total > reader.remaining()) return std::nullopt;
    net::WireReader ext(reader.raw(ext_total));
    while (ext.remaining() >= 4) {
      const std::uint16_t type = ext.u16();
      const std::uint16_t length = ext.u16();
      if (length > ext.remaining()) return std::nullopt;
      net::WireReader data(ext.raw(length));
      if (type == kExtServerName && length >= 5) {
        data.u16();  // list length
        const std::uint8_t name_type = data.u8();
        const auto name = data.raw(data.u16());
        if (data.ok() && name_type == 0) hello.server_name = util::as_text(name);
      } else if (type == kExtStatusRequest) {
        hello.ocsp_stapling = true;
      }
    }
  }
  return hello;
}

net::Bytes ServerHello::encode() const {
  net::Bytes out;
  net::WireWriter writer(out);
  writer.u16(version);
  writer.raw(std::span<const std::uint8_t>(random));
  writer.u8(static_cast<std::uint8_t>(session_id.size()));
  writer.raw(session_id);
  writer.u16(cipher_suite);
  writer.u8(compression_method);
  if (ocsp_stapling || extra_extension_bytes > 0) {
    net::Bytes extensions;
    net::WireWriter ext(extensions);
    if (ocsp_stapling) write_extension(ext, kExtStatusRequest, {});
    if (extra_extension_bytes > 0) {
      const net::Bytes padding(extra_extension_bytes, 0);
      write_extension(ext, kExtPadding, padding);  // padding extension (RFC 7685)
    }
    writer.u16(static_cast<std::uint16_t>(extensions.size()));
    writer.raw(extensions);
  }
  return out;
}

std::optional<ServerHello> ServerHello::decode(std::span<const std::uint8_t> body) {
  net::WireReader reader(body);
  ServerHello hello;
  hello.version = reader.u16();
  const auto random = reader.raw(32);
  if (!reader.ok()) return std::nullopt;
  std::copy(random.begin(), random.end(), hello.random.begin());
  const std::uint8_t session_len = reader.u8();
  const auto session = reader.raw(session_len);
  // iwlint: allow(hot-path) -- TLS parsing runs per probe conversation, not
  // per fabric packet; reached only via the over-approximate decode edge
  hello.session_id.assign(session.begin(), session.end());
  hello.cipher_suite = reader.u16();
  hello.compression_method = reader.u8();
  if (!reader.ok()) return std::nullopt;
  if (reader.remaining() >= 2) {
    const std::uint16_t ext_total = reader.u16();
    if (ext_total > reader.remaining()) return std::nullopt;
    net::WireReader ext(reader.raw(ext_total));
    while (ext.remaining() >= 4) {
      const std::uint16_t type = ext.u16();
      const std::uint16_t length = ext.u16();
      // A length past the block would make skip() a no-op and stall the
      // loop forever; treat it as the malformed extension block it is.
      if (length > ext.remaining()) return std::nullopt;
      ext.skip(length);
      if (type == kExtStatusRequest) hello.ocsp_stapling = true;
    }
  }
  return reader.ok() ? std::optional(hello) : std::nullopt;
}

// iwlint: allow(unreached) -- pins generated chain sizes (CertChainGen tests)
std::size_t CertificateChain::total_certificate_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& cert : certificates) total += cert.size();
  return total;
}

net::Bytes CertificateChain::encode() const {
  net::Bytes out;
  net::WireWriter writer(out);
  std::size_t list_bytes = 0;
  for (const auto& cert : certificates) list_bytes += 3 + cert.size();
  writer.u24(static_cast<std::uint32_t>(list_bytes));
  for (const auto& cert : certificates) {
    writer.u24(static_cast<std::uint32_t>(cert.size()));
    writer.raw(cert);
  }
  return out;
}

std::optional<CertificateChain> CertificateChain::decode(
    std::span<const std::uint8_t> body) {
  net::WireReader reader(body);
  const std::uint32_t list_bytes = reader.u24();
  if (!reader.ok() || list_bytes != reader.remaining()) return std::nullopt;
  CertificateChain chain;
  while (reader.remaining() > 0) {
    const std::uint32_t cert_len = reader.u24();
    if (!reader.ok() || cert_len > reader.remaining()) return std::nullopt;
    const auto cert = reader.raw(cert_len);
    // iwlint: allow(hot-path) -- certificate chains are copied once per
    // handshake; probe sessions cap them via the rx-byte budget
    chain.certificates.emplace_back(cert.begin(), cert.end());
  }
  return chain;
}

}  // namespace iwscan::tls
