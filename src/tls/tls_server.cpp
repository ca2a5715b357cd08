#include "tls/tls_server.hpp"

#include "tls/handshake.hpp"
#include "util/rng.hpp"

namespace iwscan::tls {
namespace {

/// Bytes of a stapled OCSP response (CertificateStatus body).
constexpr std::size_t kOcspResponseBytes = 1600;
/// ServerHello extension bytes beyond the OCSP flag: a realistic size.
constexpr std::uint16_t kHelloExtraBytes = 140;

}  // namespace

void TlsServerApp::on_data(tcp::TcpConnection& conn,
                           std::span<const std::uint8_t> data) {
  if (handled_hello_) return;
  reader_.feed(data);
  const auto record = reader_.next();
  if (reader_.malformed()) {
    conn.abort();
    return;
  }
  if (!record) return;  // ClientHello spans more TCP segments; wait

  handled_hello_ = true;
  if (record->type != ContentType::Handshake) {
    send_alert(conn, AlertDescription::InternalError);
    return;
  }
  const auto messages = split_handshakes(record->payload);
  if (!messages || messages->empty() ||
      messages->front().type != HandshakeType::ClientHello) {
    send_alert(conn, AlertDescription::InternalError);
    return;
  }
  const auto hello = ClientHello::decode(messages->front().body);
  if (!hello) {
    send_alert(conn, AlertDescription::InternalError);
    return;
  }

  // SNI policy first: hosts that insist on a (forward-DNS) name reject
  // IP-only probes before any cipher negotiation (§4, success-rate text).
  if (!hello->server_name.has_value()) {
    switch (config_.sni_policy) {
      case SniPolicy::Ignore:
        break;
      case SniPolicy::AlertAndClose:
        send_alert(conn, AlertDescription::UnrecognizedName);
        return;
      case SniPolicy::SilentClose:
        conn.close();  // FIN with zero application bytes
        return;
    }
  }

  const CipherSuite chosen =
      negotiate(hello->cipher_suites, config_.supported_ciphers);
  if (chosen == 0) {
    send_alert(conn, AlertDescription::HandshakeFailure);
    return;
  }

  // Per-vhost IW: a ClientHello naming this edge's vhost via SNI is served
  // from the vhost's (larger) first-flight config. Must precede the
  // ServerHello flight — set_initial_window is a no-op once data has flown.
  if (config_.sni_iw && hello->server_name &&
      !config_.server_name.empty() && *hello->server_name == config_.server_name) {
    conn.set_initial_window(*config_.sni_iw);
  }

  send_first_flight(conn, *hello, chosen);
}

void TlsServerApp::send_first_flight(tcp::TcpConnection& conn,
                                     const ClientHello& hello, CipherSuite chosen) {
  ServerHello server_hello;
  server_hello.version = kTls12;
  util::Rng rng(util::mix64(config_.seed, conn.remote_addr().value()));
  for (auto& byte : server_hello.random) byte = static_cast<std::uint8_t>(rng());
  server_hello.cipher_suite = chosen;
  const bool staple = config_.ocsp_staple && hello.ocsp_stapling;
  server_hello.ocsp_stapling = staple;
  server_hello.extra_extension_bytes = kHelloExtraBytes;
  server_hello.session_id.assign(32, 0x42);  // servers typically issue one

  const CertificateChain chain =
      make_chain(config_.chain_bytes, config_.server_name, config_.seed);

  net::Bytes flight;
  {
    const net::Bytes hello_msg =
        encode_handshake(HandshakeType::ServerHello, server_hello.encode());
    flight.insert(flight.end(), hello_msg.begin(), hello_msg.end());
  }
  {
    const net::Bytes cert_msg =
        encode_handshake(HandshakeType::Certificate, chain.encode());
    flight.insert(flight.end(), cert_msg.begin(), cert_msg.end());
  }
  if (staple) {
    // CertificateStatus: status_type(1) + 24-bit length + OCSP response.
    net::Bytes status;
    net::WireWriter writer(status);
    writer.u8(1);  // ocsp
    writer.u24(static_cast<std::uint32_t>(kOcspResponseBytes));
    util::Rng ocsp_rng(util::mix64(config_.seed, 0x0c5b));
    for (std::size_t i = 0; i < kOcspResponseBytes; ++i) {
      status.push_back(static_cast<std::uint8_t>(ocsp_rng()));
    }
    const net::Bytes status_msg =
        encode_handshake(HandshakeType::CertificateStatus, status);
    flight.insert(flight.end(), status_msg.begin(), status_msg.end());
  }
  {
    const net::Bytes done_msg = encode_handshake(HandshakeType::ServerHelloDone, {});
    flight.insert(flight.end(), done_msg.begin(), done_msg.end());
  }

  net::Bytes wire;
  encode_fragmented(ContentType::Handshake, kTls12, flight, wire);
  conn.send(std::span<const std::uint8_t>(wire));
  // The server now waits for the client's key exchange; it does NOT close —
  // so an IW-limited flight is followed by silence + RTO retransmission,
  // exactly what the estimator needs.
}

void TlsServerApp::send_alert(tcp::TcpConnection& conn, AlertDescription description) {
  const net::Bytes alert = encode_alert(AlertLevel::Fatal, description);
  net::Bytes wire;
  encode_fragmented(ContentType::Alert, kTls12, alert, wire);
  conn.send(std::span<const std::uint8_t>(wire));
  conn.close();
}

tcp::TcpHost::AppFactory TlsServerApp::factory(TlsConfig config) {
  return [config](net::IPv4Address, std::uint16_t) {
    return std::make_unique<TlsServerApp>(config);
  };
}

}  // namespace iwscan::tls
