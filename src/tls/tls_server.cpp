#include "tls/tls_server.hpp"

#include "tls/cert.hpp"
#include "tls/handshake.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace iwscan::tls {
namespace {

/// Bytes of a stapled OCSP response (CertificateStatus body).
constexpr std::size_t kOcspResponseBytes = 1600;
/// ServerHello extension bytes beyond the OCSP flag: a realistic size.
constexpr std::uint16_t kHelloExtraBytes = 140;
/// Servers typically issue a session id; every byte of it is this value.
constexpr std::size_t kSessionIdBytes = 32;
constexpr std::uint8_t kSessionIdByte = 0x42;
constexpr std::size_t kRandomBytes = 32;

void write_handshake_header(FragmentWriter& out, HandshakeType type, std::size_t body) {
  out.u8(static_cast<std::uint8_t>(type));
  out.u24(static_cast<std::uint32_t>(body));
}

void write_draws(FragmentWriter& out, std::size_t n, util::Rng& rng) {
  while (n > 0) {
    const auto piece = out.claim(n);
    fill_draws(piece, rng);
    n -= piece.size();
  }
}

}  // namespace

net::Bytes encode_first_flight(const TlsConfig& config, net::IPv4Address client,
                               CipherSuite chosen, bool staple) {
  // Every size first. The ServerHello carries the empty status_request
  // echo when stapling and a padding extension for the realistic extra
  // bytes (4-byte extension headers); its fixed fields are version (2),
  // random, session id length (1) and id, cipher (2), compression (1) and
  // the extensions length (2). Certificate lengths are 24-bit (3 bytes).
  const std::size_t extensions = (staple ? 4 : 0) + 4 + std::size_t{kHelloExtraBytes};
  const std::size_t hello_body =
      2 + kRandomBytes + 1 + kSessionIdBytes + 2 + 1 + 2 + extensions;
  const ChainLayout chain =
      chain_layout(config.chain_bytes, config.server_name, config.seed);
  std::size_t chain_list = 0;
  for (const CertificateSpec& cert : chain.certificates()) chain_list += 3 + cert.size;
  const std::size_t status_body = 1 + 3 + kOcspResponseBytes;  // type, length, response
  const std::size_t flight =
      kHandshakeHeaderBytes + hello_body + kHandshakeHeaderBytes + 3 + chain_list +
      (staple ? kHandshakeHeaderBytes + status_body : 0) + kHandshakeHeaderBytes;

  net::Bytes wire;
  FragmentWriter out(ContentType::Handshake, kTls12, flight, wire);

  write_handshake_header(out, HandshakeType::ServerHello, hello_body);
  out.u16(kTls12);
  util::Rng rng(util::mix64(config.seed, client.value()));
  write_draws(out, kRandomBytes, rng);
  out.u8(static_cast<std::uint8_t>(kSessionIdBytes));
  out.fill(kSessionIdBytes, kSessionIdByte);
  out.u16(chosen);
  out.u8(0);  // compression: null
  out.u16(static_cast<std::uint16_t>(extensions));
  if (staple) {
    out.u16(kExtStatusRequest);
    out.u16(0);
  }
  out.u16(kExtPadding);
  out.u16(kHelloExtraBytes);
  out.fill(kHelloExtraBytes, 0);

  write_handshake_header(out, HandshakeType::Certificate, 3 + chain_list);
  out.u24(static_cast<std::uint32_t>(chain_list));
  for (const CertificateSpec& cert : chain.certificates()) {
    out.u24(static_cast<std::uint32_t>(cert.size));
    CertificateFiller filler(cert);
    while (filler.remaining() > 0) filler.fill(out.claim(filler.remaining()));
  }

  if (staple) {
    write_handshake_header(out, HandshakeType::CertificateStatus, status_body);
    out.u8(1);  // status_type = ocsp
    out.u24(static_cast<std::uint32_t>(kOcspResponseBytes));
    util::Rng ocsp_rng(util::mix64(config.seed, 0x0c5b));
    write_draws(out, kOcspResponseBytes, ocsp_rng);
  }

  write_handshake_header(out, HandshakeType::ServerHelloDone, 0);
  IWSCAN_ASSERT(out.done(), "first flight shorter than its computed size");
  return wire;
}

void TlsServerApp::on_data(tcp::TcpConnection& conn,
                           std::span<const std::uint8_t> data) {
  if (done_) return;
  // A ClientHello that arrives whole (one segment) is framed where it
  // lies; only a split one is gathered in pending_.
  std::span<const std::uint8_t> stream = data;
  if (!pending_.empty()) {
    pending_.insert(pending_.end(), data.begin(), data.end());
    stream = pending_;
  }
  const RecordFrame record = frame_record(stream);
  switch (record.status) {
    case RecordFrame::Status::NeedMore:
      // ClientHello spans more TCP segments; wait
      if (pending_.empty()) pending_.assign(data.begin(), data.end());
      return;
    case RecordFrame::Status::Malformed:
      done_ = true;
      conn.abort();
      return;
    case RecordFrame::Status::Complete:
      break;
  }
  done_ = true;
  answer(conn, record);
}

void TlsServerApp::answer(tcp::TcpConnection& conn, const RecordFrame& record) {
  const auto send_alert = [&conn](AlertDescription description) {
    const auto alert = fatal_alert_record(description);
    conn.send(std::span<const std::uint8_t>(alert));
    conn.close();
  };
  if (record.type != ContentType::Handshake) {
    send_alert(AlertDescription::InternalError);
    return;
  }
  // The daemon reads the first message, once the whole record walks.
  std::optional<HandshakeMessage> first;
  const bool framed = walk_handshakes(record.payload, [&first](HandshakeMessage message) {
    if (!first) first = message;
  });
  if (!framed || !first || first->type != HandshakeType::ClientHello) {
    send_alert(AlertDescription::InternalError);
    return;
  }
  const auto hello = decode_client_hello(first->body);
  if (!hello) {
    send_alert(AlertDescription::InternalError);
    return;
  }

  // SNI policy first: hosts that insist on a (forward-DNS) name reject
  // IP-only probes before any cipher negotiation (§4, success-rate text).
  if (!hello->server_name.has_value()) {
    switch (config_.sni_policy) {
      case SniPolicy::Ignore:
        break;
      case SniPolicy::AlertAndClose:
        send_alert(AlertDescription::UnrecognizedName);
        return;
      case SniPolicy::SilentClose:
        conn.close();  // FIN with zero application bytes
        return;
    }
  }

  const CipherSuite chosen = negotiate(hello->cipher_suites, config_.supported_ciphers);
  if (chosen == 0) {
    send_alert(AlertDescription::HandshakeFailure);
    return;
  }

  // Per-vhost IW: a ClientHello naming this edge's vhost via SNI is served
  // from the vhost's (larger) first-flight config. Must precede the
  // ServerHello flight — set_initial_window is a no-op once data has flown.
  if (config_.sni_iw && hello->server_name &&
      !config_.server_name.empty() && *hello->server_name == config_.server_name) {
    conn.set_initial_window(*config_.sni_iw);
  }

  conn.send(encode_first_flight(config_, conn.remote_addr(), chosen,
                                config_.ocsp_staple && hello->ocsp_stapling));
  // The server now waits for the client's key exchange; it does NOT close —
  // so an IW-limited flight is followed by silence + RTO retransmission,
  // exactly what the estimator needs.
}

tcp::TcpHost::AppFactory TlsServerApp::factory(TlsConfig config) {
  return [config](net::IPv4Address, std::uint16_t) {
    return std::make_unique<TlsServerApp>(config);
  };
}

}  // namespace iwscan::tls
